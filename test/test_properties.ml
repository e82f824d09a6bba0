(* Property-based tests (QCheck, registered via QCheck_alcotest).

   The heavyweight properties are differential: the two independent
   implementations of SEQ refinement (behavior-set enumeration per
   Def 2.1/2.3 vs the simulation game) must agree; the optimizer must
   always produce SEQ-valid output; single-threaded PS_na must coincide
   with the sequential (SC) semantics. *)

open Lang

let small_cfg =
  {
    Gen.default_config with
    Gen.na_locs = [ Loc.make "X" ];
    at_locs = [ Loc.make "Y" ];
    regs = [ Reg.make "a"; Reg.make "b" ];
    values = [ 0; 1 ];
  }

let opt_cfg =
  {
    Gen.default_config with
    Gen.na_locs = [ Loc.make "X"; Loc.make "W" ];
    at_locs = [ Loc.make "Y" ];
    allow_loops = true;
  }

(* QCheck generator wrapping our seeded generator. *)
let stmt_gen (cfg : Gen.config) ~size : Stmt.t QCheck.Gen.t =
 fun rand -> Gen.gen_program cfg rand ~size

let stmt_arbitrary cfg ~size =
  QCheck.make
    ~print:(fun s -> Stmt.to_string s)
    (stmt_gen cfg ~size)

let values2 = [ Value.Int 0; Value.Int 1 ]

(* 1. Reflexivity of SEQ refinement on random programs. *)
let refine_reflexive =
  QCheck.Test.make ~name:"SEQ refinement is reflexive" ~count:40
    (stmt_arbitrary small_cfg ~size:4)
    (fun s ->
      let d = Domain.of_stmts ~values:values2 [ s ] in
      Seq_model.Refine.check d ~src:s ~tgt:s)

(* 2. Prop 3.4 on random program pairs: simple ⇒ advanced. *)
let prop_3_4 =
  QCheck.Test.make ~name:"simple refinement implies advanced (Prop 3.4)"
    ~count:25
    (QCheck.pair (stmt_arbitrary small_cfg ~size:3) (stmt_arbitrary small_cfg ~size:3))
    (fun (src, tgt) ->
      let d = Domain.of_stmts ~values:values2 [ src; tgt ] in
      (not (Seq_model.Refine.check d ~src ~tgt))
      || Seq_model.Advanced.check d ~src ~tgt)

(* 3. Differential: Def 2.4 by the set-based reference enumeration agrees
   with the packed game. *)
let enum_vs_game =
  QCheck.Test.make ~name:"behavior enumeration agrees with simulation game"
    ~count:15
    (QCheck.pair (stmt_arbitrary small_cfg ~size:3) (stmt_arbitrary small_cfg ~size:3))
    (fun (src, tgt) ->
      let d = Domain.of_stmts ~values:values2 [ src; tgt ] in
      let game = Seq_model.Refine.check d ~src ~tgt in
      let enum =
        List.for_all
          (fun (p : Seq_model.Refine.pair) ->
            match
              (* generated programs are loop-free, so executions fit well
                 within the fuel *)
              Seq_ref.Behavior.refines_at d ~fuel:16
                ~src:p.Seq_model.Refine.src ~tgt:p.Seq_model.Refine.tgt
            with
            | Ok () -> true
            | Error _ -> false)
          (Seq_model.Refine.initial_pairs d ~src:(Prog.init src)
             ~tgt:(Prog.init tgt))
      in
      game = enum)

(* 4. The optimizer always produces SEQ-valid output ("certified").
   Loop-free programs only: the advanced-refinement game on an unlucky
   random loop-with-acquire shape can be very large; loop validation is
   covered deterministically by the optimizer suite and the corpus. *)
let optimizer_certified =
  QCheck.Test.make ~name:"optimizer output always validates in SEQ" ~count:25
    (stmt_arbitrary { opt_cfg with Gen.allow_loops = false } ~size:6)
    (fun s ->
      let _, v = Optimizer.Validate.certified_optimize ~values:values2 s in
      v.Optimizer.Validate.valid)

(* 5. The optimizer never grows the instruction count. *)
let optimizer_shrinks =
  QCheck.Test.make ~name:"SLF/LLF/DSE never grow programs" ~count:60
    (stmt_arbitrary opt_cfg ~size:8)
    (fun s ->
      let r =
        Optimizer.Driver.optimize
          ~passes:[ Optimizer.Driver.SLF; Optimizer.Driver.LLF; Optimizer.Driver.DSE ]
          s
      in
      r.Optimizer.Driver.size_after <= r.Optimizer.Driver.size_before)

(* 6. Single-threaded PS_na coincides with the SC interleaving semantics. *)
let ps_vs_sc_sequential =
  QCheck.Test.make ~name:"single-threaded PS_na equals sequential semantics"
    ~count:15
    (stmt_arbitrary small_cfg ~size:4)
    (fun s ->
      let params =
        { Promising.Thread.default_params with values = values2; max_states = 50_000 }
      in
      let ps = Promising.Machine.explore ~params [ s ] in
      let sc = Baselines.Sc.explore ~values:values2 [ s ] in
      QCheck.assume ((not ps.Promising.Machine.truncated) && not sc.Baselines.Sc.truncated);
      Promising.Machine.Behavior_set.equal ps.Promising.Machine.behaviors
        sc.Baselines.Sc.behaviors)

(* 7. PS_na behavioral refinement is reflexive on random 2-thread programs. *)
let ps_refl =
  QCheck.Test.make ~name:"PS_na refinement is reflexive" ~count:8
    (QCheck.pair (stmt_arbitrary small_cfg ~size:3) (stmt_arbitrary small_cfg ~size:3))
    (fun (t1, t2) ->
      let params =
        { Promising.Thread.default_params with values = values2; max_states = 50_000 }
      in
      let r = Promising.Machine.explore ~params [ t1; t2 ] in
      QCheck.assume (not r.Promising.Machine.truncated);
      Promising.Machine.refines ~src:r.Promising.Machine.behaviors
        ~tgt:r.Promising.Machine.behaviors)

(* 8. Parser round-trips the pretty-printer on random programs. *)
let parse_pp_roundtrip =
  QCheck.Test.make ~name:"parse ∘ pp = id on random programs" ~count:100
    (stmt_arbitrary opt_cfg ~size:8)
    (fun s ->
      let printed = Stmt.to_string s in
      let reparsed = Parser.stmt_of_string printed in
      String.equal printed (Stmt.to_string reparsed))

let suite =
  List.map
    (QCheck_alcotest.to_alcotest ~long:false)
    [
      refine_reflexive;
      prop_3_4;
      enum_vs_game;
      optimizer_certified;
      optimizer_shrinks;
      ps_vs_sc_sequential;
      ps_refl;
      parse_pp_roundtrip;
    ]

(* 9. End-to-end optimizer differential: on single-threaded programs the
   full pipeline preserves the observable (return value + output) behavior
   set exactly, checked against the independent SC interpreter. *)
let optimizer_preserves_sequential =
  QCheck.Test.make
    ~name:"optimizer preserves single-thread observable behaviors" ~count:40
    (stmt_arbitrary opt_cfg ~size:8)
    (fun s ->
      let r = Optimizer.Driver.optimize s in
      let explore p = Baselines.Sc.explore ~values:values2 ~max_states:20_000 [ p ] in
      let before = explore s and after = explore r.Optimizer.Driver.output in
      QCheck.assume
        ((not before.Baselines.Sc.truncated) && not after.Baselines.Sc.truncated);
      Baselines.Sc.Behavior_set.equal before.Baselines.Sc.behaviors
        after.Baselines.Sc.behaviors)

(* 10. DSE + SLF compose: running the pipeline twice equals running it
   once (idempotence). *)
let optimizer_idempotent =
  QCheck.Test.make ~name:"optimizer pipeline is idempotent" ~count:60
    (stmt_arbitrary opt_cfg ~size:8)
    (fun s ->
      let once = (Optimizer.Driver.optimize s).Optimizer.Driver.output in
      let twice = (Optimizer.Driver.optimize once).Optimizer.Driver.output in
      String.equal (Stmt.to_string once) (Stmt.to_string twice))

let suite =
  suite
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ optimizer_preserves_sequential; optimizer_idempotent ]
