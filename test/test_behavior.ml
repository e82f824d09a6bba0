(* SEQ behaviors by direct enumeration (Def 2.1/2.3) and the differential
   check against the simulation-game refinement decision procedure. *)

open Lang
module B = Seq_model.Behavior

let parse = Parser.stmt_of_string

let cfg_of ?(perm = []) ?(mem = []) src =
  let mem =
    List.fold_left (fun m (x, v) -> Loc.Map.add (Loc.make x) v m) Loc.Map.empty mem
  in
  Seq_model.Config.make
    ~perm:(Loc.Set.of_list (List.map Loc.make perm))
    ~mem (Prog.init (parse src))

let test name f = Alcotest.test_case name `Quick f

(* Example 2.2 of the paper: behaviors of x^rlx := 1; y^na := 2; return 3,
   by the memoized core enumeration and by the literal reference recursion,
   which must agree. *)
let example_2_2 () =
  let d =
    Domain.make ~values:[ Value.Int 1; Value.Int 2; Value.Int 3 ]
      ~na_locs:[ Loc.make "Y" ] ~at_locs:[ Loc.make "X" ] ()
  in
  let src = "X.store(rlx, 1); Y.store(na, 2); return 3" in
  let enumerate cfg =
    let core = B.enumerate (Seq_model.Core.create d) ~fuel:10 cfg in
    let reference = Seq_ref.Behavior.enumerate d ~fuel:10 cfg in
    if not (B.Set.equal core reference) then
      Alcotest.fail "core and reference enumerations differ";
    core
  in
  let behs = enumerate (cfg_of ~perm:[ "Y" ] src) in
  let y = Loc.make "Y" in
  let w1 = Seq_model.Event.Rlx_write (Loc.make "X", Value.Int 1) in
  let expect =
    [
      ([], B.Prt Loc.Set.empty);
      ([ w1 ], B.Prt Loc.Set.empty);
      ([ w1 ], B.Prt (Loc.Set.singleton y));
      ([ w1 ],
       B.Trm (Value.Int 3, Loc.Set.singleton y, Loc.Map.singleton y (Value.Int 2)));
    ]
  in
  List.iter
    (fun b ->
      if not (B.Set.mem b behs) then
        Alcotest.failf "missing behavior %a" B.pp b)
    expect;
  (* without permission on Y, the only terminating behavior is ⊥ *)
  let behs' = enumerate (cfg_of src) in
  Alcotest.(check bool) "⊥ present" true (B.Set.mem ([ w1 ], B.Bot) behs');
  B.Set.iter
    (function
      | _, B.Trm _ -> Alcotest.fail "unexpected termination without permission"
      | _ -> ())
    behs'

(* Differential: Def 2.4 by the set-based reference enumeration agrees
   with the packed simulation game on the corpus entries without loops
   (enumeration needs finite traces to be meaningful at small fuel). *)
let differential () =
  let loopless (tr : Litmus.Catalog.transformation) =
    let has_loop s =
      let rec go = function
        | Stmt.While _ -> true
        | Stmt.Seq (a, b) | Stmt.If (_, a, b) -> go a || go b
        | _ -> false
      in
      go (parse s)
    in
    (not (has_loop tr.Litmus.Catalog.src)) && not (has_loop tr.Litmus.Catalog.tgt)
  in
  let values = [ Value.Int 0; Value.Int 1 ] in
  List.iter
    (fun (tr : Litmus.Catalog.transformation) ->
      let src = parse tr.Litmus.Catalog.src in
      let tgt = parse tr.Litmus.Catalog.tgt in
      let d = Domain.of_stmts ~values [ src; tgt ] in
      let game = Seq_model.Refine.check d ~src ~tgt in
      let enum =
        List.for_all
          (fun (p : Seq_model.Refine.pair) ->
            match
              Seq_ref.Behavior.refines_at d ~fuel:12 ~src:p.Seq_model.Refine.src
                ~tgt:p.Seq_model.Refine.tgt
            with
            | Ok () -> true
            | Error _ -> false)
          (Seq_model.Refine.initial_pairs d ~src:(Prog.init src)
             ~tgt:(Prog.init tgt))
      in
      if game <> enum then
        Alcotest.failf "game=%b enum=%b disagree on %s" game enum
          tr.Litmus.Catalog.name)
    (List.filter loopless Litmus.Catalog.transformations)

(* ------------------------------------------------------------------ *)
(* Projected outcomes: [B.outcomes] is exactly the (return value,
   prints) / ⊥ projection of the full enumeration.  Every side runs under
   a state budget; exhausting it fails the check with the program, so a
   draw that makes the full-trace enumeration explode shows up as a
   named failure, not a stall. *)

let project (behs : B.Set.t) : B.outcomes =
  B.Set.fold
    (fun (evs, r) (o : B.outcomes) ->
      match r with
      | B.Trm (v, _, _) ->
        let prints =
          List.filter_map
            (function Seq_model.Event.Out v -> Some v | _ -> None)
            evs
        in
        { o with B.returns = B.Outcome_set.add (v, prints) o.B.returns }
      | B.Bot -> { o with B.bot = true }
      | B.Prt _ -> o)
    behs
    { B.returns = B.Outcome_set.empty; B.bot = false }

let equal_outcomes (a : B.outcomes) (b : B.outcomes) =
  B.Outcome_set.equal a.B.returns b.B.returns && a.B.bot = b.B.bot

(* The baseline-env oracle's query: full permission, zero memory, its
   fuel. *)
let oracle_query p =
  let d = Domain.of_stmts [ p ] in
  let cfg = Seq_model.Config.make ~perm:(Domain.na_set d) (Prog.init p) in
  (d, cfg, (16 * Stmt.size p) + 64)

(* Each side's state budget.  Over 9000 loop-free size-7 draws the
   memoized full-trace enumeration charged at most 332k states, the
   reference 56k and [outcomes] 22k; the E12 programs below charge at most
   1.06M (program 22, memoized full traces). *)
let outcome_budget = 2_000_000

(* [Some why] when some side disagrees; exhausting the budget on any side
   fails loudly. *)
let outcomes_mismatch ~reference p =
  let d, cfg, fuel = oracle_query p in
  let budget () = Engine.Budget.make ~max_states:outcome_budget () in
  match
    let o =
      B.outcomes ~budget:(budget ()) (Seq_model.Core.create d) ~fuel cfg
    in
    let memoized =
      project
        (B.enumerate ~budget:(budget ()) (Seq_model.Core.create d) ~fuel cfg)
    in
    let recursive =
      if reference then
        Some
          (project
             (Seq_ref.Behavior.enumerate ~budget:(budget ()) d ~fuel cfg))
      else None
    in
    (o, memoized, recursive)
  with
  | exception Engine.Budget.Exhausted _ ->
    Some (Printf.sprintf "%d-state budget exhausted" outcome_budget)
  | o, memoized, recursive ->
    if not (equal_outcomes o memoized) then
      Some "outcomes <> memoized projection"
    else if
      match recursive with
      | Some r -> not (equal_outcomes o r)
      | None -> false
    then Some "outcomes <> reference projection"
    else None

let outcomes_projection =
  QCheck.Test.make
    ~name:"outcomes == projected enumeration (reference and tables), loop-free"
    ~count:60
    (QCheck.make
       ~print:(fun p -> Stmt.to_string p)
       (fun rand -> Gen.gen_program Gen.default_config rand ~size:7))
    (fun p ->
      match outcomes_mismatch ~reference:true p with
      | None -> true
      | Some why -> QCheck.Test.fail_reportf "%s on@.%s" why (Stmt.to_string p))

(* The 30 fixed programs of the E12 enumeration-oracle row (bench/main.ml:
   seed 42, loops, sizes 13-16).  The reference recursion takes tens of
   seconds on them, so only the memoized enumeration is compared. *)
let e12_programs () =
  let rand = Random.State.make [| 42 |] in
  List.init 30 (fun i ->
      Gen.gen_program
        { Gen.default_config with Gen.allow_loops = true }
        rand ~size:(13 + (i mod 4)))

let outcomes_e12 () =
  List.iteri
    (fun i p ->
      match outcomes_mismatch ~reference:false p with
      | None -> ()
      | Some why ->
        Alcotest.failf "E12 program %d: %s on@.%s" i why (Stmt.to_string p))
    (e12_programs ())

(* A budget either suffices or stops the run: [outcomes] raises
   [Exhausted] below the states a complete run charges and returns the
   complete result at or above them, never a partial set. *)
let outcomes_tiny_budget =
  QCheck.Test.make ~name:"outcomes under a tiny budget: Exhausted or complete"
    ~count:60
    (QCheck.pair
       (QCheck.make
          ~print:(fun p -> Stmt.to_string p)
          (fun rand -> Gen.gen_program Gen.default_config rand ~size:6))
       (QCheck.int_bound 1_000))
    (fun (p, k) ->
      let d, cfg, fuel = oracle_query p in
      let meter = Engine.Budget.make ~max_states:max_int () in
      let full = B.outcomes ~budget:meter (Seq_model.Core.create d) ~fuel cfg in
      let needed = Engine.Budget.states_used meter in
      let k = k mod (needed + 2) in
      match
        B.outcomes ~budget:(Engine.Budget.make ~max_states:k ())
          (Seq_model.Core.create d) ~fuel cfg
      with
      | o -> k >= needed && equal_outcomes o full
      | exception Engine.Budget.Exhausted Engine.Budget.States -> k < needed)

let suite =
  [
    test "Example 2.2 behaviors" example_2_2;
    QCheck_alcotest.to_alcotest ~long:false outcomes_projection;
    QCheck_alcotest.to_alcotest ~long:false outcomes_tiny_budget;
    Alcotest.test_case "outcomes == projected enumeration on the E12 programs"
      `Quick outcomes_e12;
    Alcotest.test_case "enumeration vs game differential (loop-free corpus)"
      `Slow differential;
    test "behavior ⊑: source ⊥ matches extensions" (fun () ->
        let d = Domain.make ~na_locs:[] ~at_locs:[ Loc.make "X" ] () in
        let w v = Seq_model.Event.Rlx_write (Loc.make "X", Value.Int v) in
        Alcotest.(check bool) "prefix" true
          (B.le d ([ w 1; w 2 ], B.Prt Loc.Set.empty) ([ w 1 ], B.Bot));
        Alcotest.(check bool) "non-prefix" false
          (B.le d ([ w 2; w 2 ], B.Prt Loc.Set.empty) ([ w 1 ], B.Bot)));
    test "behavior ⊑: undef in source write" (fun () ->
        let d = Domain.make ~na_locs:[] ~at_locs:[ Loc.make "X" ] () in
        let wt = Seq_model.Event.Rlx_write (Loc.make "X", Value.Int 1) in
        let ws = Seq_model.Event.Rlx_write (Loc.make "X", Value.Undef) in
        Alcotest.(check bool) "W(1) ⊑ W(undef)" true
          (B.le d ([ wt ], B.Prt Loc.Set.empty) ([ ws ], B.Prt Loc.Set.empty));
        Alcotest.(check bool) "W(undef) ⋢ W(1)" false
          (B.le d ([ ws ], B.Prt Loc.Set.empty) ([ wt ], B.Prt Loc.Set.empty)));
  ]
