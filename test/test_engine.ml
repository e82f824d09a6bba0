(* The parallel=sequential contract of lib/engine: Sweep.run over any
   task list returns byte-identical results and ordering for every
   [jobs] setting, exceptions propagate deterministically (lowest task
   index wins), cancellation keeps min-index semantics, and the pool
   never deadlocks on a raising task.  The qcheck properties sweep
   random slices of the litmus catalog — the engine's real workload —
   through real checkers. *)

module S = Engine.Sweep
module P = Engine.Pool
module C = Litmus.Catalog
module M = Promising.Machine

let int_list = Alcotest.(list int)

(* ------------------------------------------------------------------ *)
(* Unit tests: edges of the pool/sweep machinery                        *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  Alcotest.check int_list "empty task list" []
    (S.run ~jobs:3 ~f:(fun x -> x) [])

let test_single () =
  Alcotest.check int_list "single task" [ 42 ]
    (S.run ~jobs:4 ~f:(fun x -> x + 41) [ 1 ])

let test_more_jobs_than_tasks () =
  Alcotest.check int_list "jobs > tasks" [ 2; 4; 6 ]
    (S.run ~jobs:8 ~f:(fun x -> 2 * x) [ 1; 2; 3 ])

let test_input_order () =
  let tasks = List.init 50 Fun.id in
  Alcotest.check int_list "results in input order"
    (List.map (fun i -> i * i) tasks)
    (S.run ~jobs:4 ~chunk:3 ~f:(fun i -> i * i) tasks)

let test_exception_propagates () =
  (* The raising task's exception must escape run; with several raising
     tasks, the lowest-index one must win regardless of scheduling; and
     the pool must stay usable afterwards (no deadlock, workers alive). *)
  P.with_pool ~jobs:4 (fun pool ->
      let f i = if i mod 10 = 7 then failwith (Printf.sprintf "boom%d" i) else i in
      (match S.run ~pool ~chunk:1 ~f (List.init 40 Fun.id) with
       | _ -> Alcotest.fail "expected the task exception to propagate"
       | exception Failure msg ->
         Alcotest.(check string) "lowest-index exception wins" "boom7" msg);
      (* same pool, next job: must complete normally *)
      Alcotest.check int_list "pool survives a raising job" [ 1; 2; 3 ]
        (S.run ~pool ~f:(fun x -> x) [ 1; 2; 3 ]))

let test_run_with_envs () =
  (* init runs at most once per worker slot, and per-domain state never
     changes results *)
  let created = Atomic.make 0 in
  let init () =
    Atomic.incr created;
    Hashtbl.create 16
  in
  let f memo i =
    match Hashtbl.find_opt memo i with
    | Some v -> v
    | None ->
      let v = i * 3 in
      Hashtbl.add memo i v;
      v
  in
  let tasks = List.init 30 (fun i -> i mod 5) in
  let got = S.run_with ~jobs:4 ~chunk:2 ~init ~f tasks in
  Alcotest.check int_list "memoized results correct"
    (List.map (fun i -> i * 3) tasks)
    got;
  let n = Atomic.get created in
  if n < 1 || n > 4 then Alcotest.failf "expected 1..4 envs, created %d" n

(* ------------------------------------------------------------------ *)
(* qcheck: the determinism contract on real workloads                   *)
(* ------------------------------------------------------------------ *)

(* A random slice (subset, in order) of a list, driven by qcheck bools. *)
let slice_of mask l =
  List.filteri
    (fun i _ -> match List.nth_opt mask i with Some b -> b | None -> false)
    l

let e12_summary (r : Litmus.Matrix.e12_row) =
  Printf.sprintf "%s:%s/%s:%d" r.Litmus.Matrix.tr.C.name
    (C.verdict_to_string r.Litmus.Matrix.simple_got)
    (C.verdict_to_string r.Litmus.Matrix.advanced_got)
    r.Litmus.Matrix.pairs

let det_transformations =
  QCheck.Test.make
    ~name:"Sweep.run jobs:4 = jobs:1 on random transformation slices"
    ~count:6
    QCheck.(list_of_size Gen.(return (List.length C.transformations)) bool)
    (fun mask ->
      let tasks = slice_of mask C.transformations in
      let f tr = e12_summary (Litmus.Matrix.e12_row tr) in
      let seq = S.run ~jobs:1 ~f tasks in
      let par = S.run ~jobs:4 ~chunk:1 ~f tasks in
      List.length seq = List.length par && List.for_all2 String.equal seq par)

(* Cheap litmus programs only: the point is scheduling diversity, not
   state-space size. *)
let cheap_litmus =
  List.filter
    (fun (c : C.concurrent) ->
      List.mem c.C.cname [ "SB-rlx"; "LB-rlx"; "LB-data"; "RW-race" ])
    C.concurrent_programs

let det_explore_with_domain_memo =
  QCheck.Test.make
    ~name:
      "Sweep.run_with per-domain memo: jobs:4 = jobs:1 on litmus slices"
    ~count:3
    QCheck.(list_of_size Gen.(return (List.length cheap_litmus)) bool)
    (fun mask ->
      let tasks = slice_of mask cheap_litmus in
      let f memo (c : C.concurrent) =
        let r = M.explore ~memo (Lang.Parser.threads_of_string c.C.threads) in
        (* everything except memo_hits/timing must be scheduling-proof,
           even though the per-domain memo is warm from earlier tasks *)
        Fmt.str "%s:%d:%b:%b:%a" c.C.cname r.M.states r.M.races r.M.truncated
          M.pp_behaviors r.M.behaviors
      in
      let sweep jobs =
        S.run_with ~jobs ~chunk:1 ~init:M.make_memo ~f tasks
      in
      let seq = sweep 1 and par = sweep 4 in
      List.length seq = List.length par && List.for_all2 String.equal seq par)

(* Hardware backends must be scheduling-proof too: Tso's store-buffer
   interleaving and Armv8's reordering frontier are explored with
   worklists whose visit order could silently leak into the behavior
   set.  Sweeping the E15 grid at jobs:4 vs jobs:1 pins every cell,
   chain verdict and state count (wall_ms excluded — it is the one
   timing field). *)
let e15_summary (r : Litmus.Matrix.e15_row) =
  Printf.sprintf "%s:%s:%b:%b" r.Litmus.Matrix.ge.C.g.C.cname
    (String.concat ","
       (List.map
          (fun (m, allowed) -> Printf.sprintf "%s=%b" m allowed)
          r.Litmus.Matrix.cells))
    r.Litmus.Matrix.chain_ok r.Litmus.Matrix.truncated

let det_backend_grid =
  QCheck.Test.make
    ~name:"backend grid: jobs:4 = jobs:1 on random E15 slices" ~count:4
    QCheck.(list_of_size Gen.(return (List.length C.grid_programs)) bool)
    (fun mask ->
      let tasks = slice_of mask C.grid_programs in
      let f ge = e15_summary (Litmus.Matrix.e15_row ge) in
      let seq = S.run ~jobs:1 ~f tasks in
      let par = S.run ~jobs:4 ~chunk:1 ~f tasks in
      List.length seq = List.length par && List.for_all2 String.equal seq par)

let suite =
  [
    Alcotest.test_case "sweep: empty task list" `Quick test_empty;
    Alcotest.test_case "sweep: single task" `Quick test_single;
    Alcotest.test_case "sweep: jobs > tasks" `Quick test_more_jobs_than_tasks;
    Alcotest.test_case "sweep: input order" `Quick test_input_order;
    Alcotest.test_case "sweep: exception propagation, pool survives" `Quick
      test_exception_propagates;
    Alcotest.test_case "sweep: per-domain envs" `Quick test_run_with_envs;
    QCheck_alcotest.to_alcotest det_transformations;
    QCheck_alcotest.to_alcotest det_explore_with_domain_memo;
    QCheck_alcotest.to_alcotest det_backend_grid;
  ]
