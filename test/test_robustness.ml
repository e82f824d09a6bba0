(* The robustness layer: budgets only ever weaken a verdict to Unknown
   (never flip Proved/Refuted), an unlimited budget is byte-identical to
   no budget at all, and the supervised sweep (Sweep.run_verdict) never
   raises — trapped tasks are quarantined per-index, transient failures
   are retried, and the parallel=sequential determinism contract holds
   even under injected faults.  See docs/ROBUSTNESS.md. *)

module B = Engine.Budget
module V = Engine.Verdict
module F = Engine.Faults
module S = Engine.Sweep
module C = Litmus.Catalog
module Matrix = Litmus.Matrix

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Budget unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_unlimited_noop () =
  Alcotest.(check bool) "unlimited" true (B.is_unlimited B.unlimited);
  for _ = 1 to 10_000 do
    B.check B.unlimited;
    B.spend_state B.unlimited;
    B.spend_fuel B.unlimited
  done;
  (* the shared value must never accumulate anything (domain-safety) *)
  Alcotest.(check int) "no states recorded" 0 (B.states_used B.unlimited);
  Alcotest.(check bool) "spec_unlimited detected" true
    (B.spec_is_unlimited B.spec_unlimited);
  Alcotest.(check bool) "spec with a bound detected" false
    (B.spec_is_unlimited (B.spec ~max_states:5 ()))

let test_state_budget_exhausts () =
  let b = B.start (B.spec ~max_states:3 ()) in
  B.spend_state b;
  B.spend_state b;
  B.spend_state b;
  match B.spend_state b with
  | () -> Alcotest.fail "expected Exhausted States"
  | exception B.Exhausted B.States -> ()

let test_zero_deadline_deterministic () =
  (* poll countdown starts at zero, so an already-expired deadline must
     fire on the very first check — no 256-iteration grace period *)
  let b = B.start (B.spec ~timeout_ms:0. ()) in
  match B.check b with
  | () -> Alcotest.fail "expected Exhausted Deadline on first check"
  | exception B.Exhausted B.Deadline -> ()

(* A deadline is measured on the monotonic clock: it fires no earlier
   than its timeout after [start], and the clock never reads backwards. *)
let test_deadline_monotonic () =
  let t0 = Engine.Clock.now () in
  let b = B.start (B.spec ~timeout_ms:20. ()) in
  let last = ref t0 in
  (match
     while true do
       let t = Engine.Clock.now () in
       if t < !last then Alcotest.fail "Clock.now went backwards";
       last := t;
       B.check b
     done
   with
   | () -> ()
   | exception B.Exhausted B.Deadline -> ());
  Alcotest.(check bool) "fired no earlier than 20 ms after start" true
    (Engine.Clock.now () -. t0 >= 0.020)

let test_fuel_budget () =
  let b = B.start (B.spec ~fuel:2 ()) in
  B.spend_fuel b;
  B.spend_fuel b;
  match B.spend_fuel b with
  | () -> Alcotest.fail "expected Exhausted Fuel"
  | exception B.Exhausted B.Fuel -> ()

(* ------------------------------------------------------------------ *)
(* Verdict unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_transience_classification () =
  Alcotest.(check bool) "deadline is transient" true
    (V.transient (V.Exhausted B.Deadline));
  Alcotest.(check bool) "states is not transient" false
    (V.transient (V.Exhausted B.States));
  Alcotest.(check bool) "fuel is not transient" false
    (V.transient (V.Exhausted B.Fuel));
  Alcotest.(check bool) "transient trap" true
    (V.transient (V.Trapped { exn = "x"; backtrace = ""; transient = true }));
  Alcotest.(check bool) "non-transient trap" false
    (V.transient (V.Trapped { exn = "x"; backtrace = ""; transient = false }))

let test_capture_traps () =
  (match V.capture (fun () -> 41 + 1) with
   | Ok 42 -> ()
   | _ -> Alcotest.fail "expected Ok 42");
  (match V.capture (fun () -> raise (B.Exhausted B.Deadline)) with
   | Error (V.Exhausted B.Deadline) -> ()
   | _ -> Alcotest.fail "expected Error (Exhausted Deadline)");
  match V.capture (fun () -> failwith "boom") with
  | Error (V.Trapped t) ->
    Alcotest.(check bool) "exn rendered" true
      (String.length t.V.exn > 0 && not t.V.transient)
  | _ -> Alcotest.fail "expected Error Trapped"

(* ------------------------------------------------------------------ *)
(* Budgeted checkers: Unknown (States) but never a flipped verdict      *)
(* ------------------------------------------------------------------ *)

(* A corpus entry with a large simple-notion pair count, so a tiny state
   budget exhausts mid-game. *)
let big_tr = Option.get (C.find_transformation "acq-then-na-read")

let check_verdict_of budget tr =
  let src = Lang.Parser.stmt_of_string tr.C.src in
  let tgt = Lang.Parser.stmt_of_string tr.C.tgt in
  let d = Lang.Domain.of_stmts ~values:Lang.Domain.default_values [ src; tgt ] in
  Seq_model.Refine.check_verdict ?budget d ~src ~tgt

let test_tiny_state_budget_unknown () =
  match check_verdict_of (Some (B.start (B.spec ~max_states:4 ()))) big_tr with
  | V.Unknown (V.Exhausted B.States) -> ()
  | v -> Alcotest.failf "expected Unknown(states), got %s" (V.to_string v)

let test_ample_budget_agrees () =
  (* with a budget big enough, the three-valued form must agree exactly
     with the unbudgeted boolean *)
  List.iteri
    (fun i tr ->
      if i mod 7 = 0 then begin
        let expect = check_verdict_of None tr in
        let got =
          check_verdict_of (Some (B.start (B.spec ~max_states:1_000_000 ()))) tr
        in
        Alcotest.(check string)
          (Printf.sprintf "%s agrees under ample budget" tr.C.name)
          (V.to_string expect) (V.to_string got)
      end)
    C.transformations

let test_explore_budget () =
  let progs =
    Lang.Parser.threads_of_string
      "Y.store(rlx,1); a = Z.load(rlx); return a ||| \
       Z.store(rlx,1); b = Y.load(rlx); return b"
  in
  let explore ?budget () =
    V.capture (fun () -> Promising.Machine.explore ?budget progs)
  in
  (match explore ~budget:(B.start (B.spec ~max_states:3 ())) () with
   | Error (V.Exhausted B.States) -> ()
   | Ok _ -> Alcotest.fail "expected Error (states)"
   | Error r -> Alcotest.failf "expected states, got %s" (V.reason_to_string r));
  match explore () with
  | Ok r -> Alcotest.(check bool) "unbudgeted Ok" true (r.Promising.Machine.states > 0)
  | Error r -> Alcotest.failf "unexpected %s" (V.reason_to_string r)

(* SC and catch-fire run on the shared explorer, so a deadline stops
   them mid-exploration like the hardware machines.  The unbounded
   counter never terminates and never revisits a state (its register
   grows on every iteration): without the deadline each run goes on to
   the 200 000-state default bound. *)
let test_sc_deadline () =
  let progs =
    Lang.Parser.threads_of_string
      "a = 0; while (a >= 0) { a = (a + 1) }; return a"
  in
  let stops name explore =
    let budget = B.make ~timeout_ms:20. () in
    (match explore budget with
     | () -> Alcotest.failf "%s: expected Exhausted Deadline" name
     | exception B.Exhausted B.Deadline -> ());
    Alcotest.(check bool)
      (Fmt.str "%s stopped early (%d states)" name (B.states_used budget))
      true
      (B.states_used budget < 100_000)
  in
  stops "Sc.explore" (fun budget ->
      ignore (Baselines.Sc.explore ~budget progs));
  stops "Sc_machine" (fun budget ->
      ignore (Backends.Registry.Sc_machine.explore ~budget progs));
  stops "Catchfire_machine" (fun budget ->
      ignore (Backends.Registry.Catchfire_machine.explore ~budget progs))

(* ------------------------------------------------------------------ *)
(* Supervised sweep: quarantine, retry, fault injection                 *)
(* ------------------------------------------------------------------ *)

let results_of outcomes =
  List.map
    (fun (o : _ S.outcome) ->
      match o.S.result with
      | Ok v -> Printf.sprintf "ok:%d:a%d" v o.S.attempts
      | Error r ->
        Printf.sprintf "err:%s:a%d:q%b" (V.reason_to_string r) o.S.attempts
          o.S.quarantined)
    outcomes

let test_quarantine_isolates () =
  let tasks = List.init 10 Fun.id in
  let outcomes =
    S.run_verdict ~jobs:3 ~faults:(F.raise_at [ 3; 7 ])
      ~f:(fun ~budget:_ x -> x * 2)
      tasks
  in
  Alcotest.(check int) "one outcome per task" 10 (List.length outcomes);
  List.iteri
    (fun i (o : _ S.outcome) ->
      if i = 3 || i = 7 then begin
        Alcotest.(check bool) "faulty task quarantined" true o.S.quarantined;
        match o.S.result with
        | Error (V.Trapped _) -> ()
        | _ -> Alcotest.failf "task %d: expected a trap" i
      end
      else
        match o.S.result with
        | Ok v -> Alcotest.(check int) "healthy task intact" (i * 2) v
        | Error _ -> Alcotest.failf "task %d poisoned by neighbor" i)
    outcomes

let test_retry_transient () =
  (* a transient fault that fires only on attempt 1: with one retry the
     task must succeed on attempt 2 *)
  let outcomes =
    S.run_verdict ~jobs:2 ~retries:1 ~backoff_ms:0.
      ~faults:(F.raise_at ~transient:true ~attempts:1 [ 1 ])
      ~f:(fun ~budget:_ x -> x + 100)
      [ 0; 1; 2 ]
  in
  match outcomes with
  | [ a; b; c ] ->
    Alcotest.(check bool) "task 0 first try" true (a.S.result = Ok 100 && a.S.attempts = 1);
    Alcotest.(check bool) "task 1 succeeded on retry" true
      (b.S.result = Ok 101 && b.S.attempts = 2 && not b.S.quarantined);
    Alcotest.(check bool) "task 2 first try" true (c.S.result = Ok 102 && c.S.attempts = 1)
  | _ -> Alcotest.fail "expected 3 outcomes"

let test_no_retry_nontransient () =
  let outcomes =
    S.run_verdict ~jobs:2 ~retries:5 ~backoff_ms:0.
      ~faults:(F.raise_at ~transient:false [ 0 ])
      ~f:(fun ~budget:_ x -> x)
      [ 0 ]
  in
  match outcomes with
  | [ o ] ->
    Alcotest.(check int) "no retry for a quarantined task" 1 o.S.attempts;
    Alcotest.(check bool) "quarantined" true o.S.quarantined
  | _ -> Alcotest.fail "expected 1 outcome"

let test_burn_states_fault () =
  (* Burn_states exhausts a state budget: Unknown(states), not transient,
     so retries must not re-run it *)
  let outcomes =
    S.run_verdict ~jobs:2 ~retries:3 ~backoff_ms:0.
      ~budget:(B.spec ~max_states:10 ())
      ~faults:[ { F.index = 1; action = F.Burn_states 50; attempts = max_int } ]
      ~f:(fun ~budget x -> B.spend_state budget; x)
      [ 0; 1; 2 ]
  in
  match results_of outcomes with
  | [ "ok:0:a1"; "err:states:a1:qfalse"; "ok:2:a1" ] -> ()
  | rs -> Alcotest.failf "unexpected outcomes: %s" (String.concat " " rs)

let test_stall_fault_deadline () =
  (* Stall_ms past the deadline must surface as Unknown(deadline) — and
     deadline is transient, so with retries the stall repeats and still
     ends Unknown after the retry budget *)
  let outcomes =
    S.run_verdict ~jobs:2 ~retries:1 ~backoff_ms:0.
      ~budget:(B.spec ~timeout_ms:5. ())
      ~faults:[ { F.index = 0; action = F.Stall_ms 30.; attempts = max_int } ]
      ~f:(fun ~budget:_ x -> x)
      [ 0; 1 ]
  in
  match outcomes with
  | [ a; b ] ->
    (match a.S.result with
     | Error (V.Exhausted B.Deadline) ->
       Alcotest.(check int) "stall retried once" 2 a.S.attempts
     | _ -> Alcotest.fail "expected deadline on the stalled task");
    Alcotest.(check bool) "other task fine" true (b.S.result = Ok 1)
  | _ -> Alcotest.fail "expected 2 outcomes"

(* ------------------------------------------------------------------ *)
(* Mixed-access at the task boundary (satellite a)                      *)
(* ------------------------------------------------------------------ *)

let poisoned : C.transformation =
  {
    C.name = "poisoned-mixed-access";
    paper_ref = "(test)";
    (* X used non-atomically and atomically: Config.Mixed_access *)
    src = "X.store(na, 1); a = X.load(acq); return a";
    tgt = "return 0";
    simple = C.Sound;
    advanced = C.Sound;
  }

let test_mixed_access_is_per_task () =
  let healthy = Option.get (C.find_transformation "slf-basic") in
  let rows =
    Matrix.e12_rows ~jobs:2 ~corpus:[ healthy; poisoned; healthy ] ()
  in
  match rows with
  | [ (_, a); (_, b); (_, c) ] ->
    Alcotest.(check bool) "row 0 unaffected" true (S.outcome_ok a);
    Alcotest.(check bool) "row 2 unaffected" true (S.outcome_ok c);
    (match b.S.result with
     | Error (V.Trapped t) ->
       Alcotest.(check bool) "trap mentions mixed access" true
         (contains ~sub:"mixed" t.V.exn);
       Alcotest.(check bool) "quarantined" true b.S.quarantined
     | _ -> Alcotest.fail "expected the poisoned row to trap");
    let rendered = Matrix.render_e12 rows in
    Alcotest.(check bool) "render shows UNKNOWN row" true
      (contains ~sub:"UNKNOWN(trap:" rendered)
  | _ -> Alcotest.fail "expected 3 rows"

(* ------------------------------------------------------------------ *)
(* The swept table reads as the sequential rows' table                  *)
(* ------------------------------------------------------------------ *)

(* [rows] as the outcomes of tasks that all succeeded at once. *)
let as_outcomes corpus rows =
  List.combine corpus
    (List.map
       (fun r ->
         { S.result = Ok r; attempts = 1; quarantined = false; wall_ms = 0. })
       rows)

let test_render_sweep_is_sequential () =
  let corpus = List.filteri (fun i _ -> i mod 5 = 0) C.transformations in
  let sequential = List.map (fun tr -> Matrix.e12_row tr) corpus in
  Alcotest.(check string) "jobs:2 sweep renders as the sequential rows"
    (Matrix.render_e12 ~stats:false (as_outcomes corpus sequential))
    (Matrix.render_e12 ~stats:false (Matrix.e12_rows ~jobs:2 ~corpus ()))

(* ------------------------------------------------------------------ *)
(* qcheck: unlimited budgets change nothing; determinism under faults   *)
(* ------------------------------------------------------------------ *)

let slice_of mask l =
  List.filteri
    (fun i _ -> match List.nth_opt mask i with Some b -> b | None -> false)
    l

let e12_summary (r : Matrix.e12_row) =
  Printf.sprintf "%s:%s/%s:%d" r.Matrix.tr.C.name
    (C.verdict_to_string r.Matrix.simple_got)
    (C.verdict_to_string r.Matrix.advanced_got)
    r.Matrix.pairs

let qcheck_unlimited_identity =
  QCheck.Test.make
    ~name:"run_verdict with an unlimited budget: Ok rows = sequential rows"
    ~count:4
    QCheck.(list_of_size Gen.(return (List.length C.transformations)) bool)
    (fun mask ->
      let corpus = slice_of mask C.transformations in
      let sequential = List.map (fun tr -> Matrix.e12_row tr) corpus in
      let swept = Matrix.e12_rows ~jobs:4 ~corpus () in
      List.for_all2
        (fun r (_, (o : _ S.outcome)) ->
          match o.S.result with
          | Ok r' -> String.equal (e12_summary r) (e12_summary r')
          | Error _ -> false)
        sequential swept)

let outcome_fingerprint (o : _ S.outcome) =
  (* everything except wall_ms must be scheduling-proof *)
  Printf.sprintf "%s:a%d:q%b"
    (match o.S.result with
     | Ok s -> "ok:" ^ s
     | Error r -> "err:" ^ V.reason_to_string r)
    o.S.attempts o.S.quarantined

let qcheck_fault_determinism =
  QCheck.Test.make
    ~name:"run_verdict jobs:4 = jobs:1 under seeded fault injection"
    ~count:6
    QCheck.(pair small_nat (list_of_size Gen.(return 12) bool))
    (fun (seed, mask) ->
      let tasks =
        List.filteri (fun i _ -> List.nth mask i) (List.init 12 Fun.id)
      in
      let n = List.length tasks in
      let faults = F.seeded ~seed ~tasks:n ~faulty:(min 3 n) () in
      let sweep jobs =
        S.run_verdict ~jobs ~chunk:1 ~retries:1 ~backoff_ms:0. ~faults
          ~f:(fun ~budget:_ x -> string_of_int (x * x))
          tasks
      in
      let seq = List.map outcome_fingerprint (sweep 1) in
      let par = List.map outcome_fingerprint (sweep 4) in
      List.length seq = List.length par && List.for_all2 String.equal seq par)

let suite =
  [
    Alcotest.test_case "budget: unlimited is an inert no-op" `Quick
      test_unlimited_noop;
    Alcotest.test_case "budget: state budget exhausts" `Quick
      test_state_budget_exhausts;
    Alcotest.test_case "budget: 0ms deadline fires on first check" `Quick
      test_zero_deadline_deterministic;
    Alcotest.test_case "budget: deadline on the monotonic clock" `Quick
      test_deadline_monotonic;
    Alcotest.test_case "budget: fuel budget exhausts" `Quick test_fuel_budget;
    Alcotest.test_case "verdict: transience classification" `Quick
      test_transience_classification;
    Alcotest.test_case "verdict: capture traps exceptions" `Quick
      test_capture_traps;
    Alcotest.test_case "checker: tiny state budget gives Unknown(states)"
      `Quick test_tiny_state_budget_unknown;
    Alcotest.test_case "checker: ample budget never flips a verdict" `Quick
      test_ample_budget_agrees;
    Alcotest.test_case "machine: explore under a budget gives Unknown" `Quick
      test_explore_budget;
    Alcotest.test_case "machine: SC and catch-fire stop at the deadline"
      `Quick test_sc_deadline;
    Alcotest.test_case "sweep: quarantine leaves other tasks intact" `Quick
      test_quarantine_isolates;
    Alcotest.test_case "sweep: transient fault retried once" `Quick
      test_retry_transient;
    Alcotest.test_case "sweep: non-transient fault not retried" `Quick
      test_no_retry_nontransient;
    Alcotest.test_case "sweep: burned states give Unknown(states)" `Quick
      test_burn_states_fault;
    Alcotest.test_case "sweep: stall past deadline gives Unknown(deadline)"
      `Quick test_stall_fault_deadline;
    Alcotest.test_case "sweep: mixed access is a per-task Unknown row" `Quick
      test_mixed_access_is_per_task;
    Alcotest.test_case "render: swept table = sequential rows' table" `Quick
      test_render_sweep_is_sequential;
    QCheck_alcotest.to_alcotest qcheck_unlimited_identity;
    QCheck_alcotest.to_alcotest qcheck_fault_determinism;
  ]
