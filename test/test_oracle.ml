(* Oracles (Def 3.2) made concrete: Tr(Ω) membership and the §3
   counterexamples exhibited with explicit environments. *)

open Lang
module B = Seq_model.Behavior
module O = Seq_model.Oracle

let parse = Parser.stmt_of_string
let test name f = Alcotest.test_case name `Quick f
let check_bool msg = Alcotest.(check bool) msg

let domain srcs =
  Domain.of_stmts ~values:[ Value.Int 0; Value.Int 1 ] (List.map parse srcs)

let cfg ?(perm = []) src =
  Seq_model.Config.make
    ~perm:(Loc.Set.of_list (List.map Loc.make perm))
    (Prog.init (parse src))

let has_bot behs =
  B.Set.exists (fun (_, r) -> r = B.Bot) behs

let suite =
  [
    test "free oracle allows every trace" (fun () ->
        let d = domain [ "a = Y.load(rlx); Y.store(rel, a); return a" ] in
        let behs =
          Seq_ref.Behavior.enumerate d ~fuel:10
            (cfg "a = Y.load(rlx); Y.store(rel, a); return a")
        in
        B.Set.iter
          (fun (tr, _) -> check_bool "allowed" true (O.allows O.free tr))
          behs);
    test "reads_satisfy filters read values" (fun () ->
        let om = O.reads_satisfy (Loc.make "Y") (fun v -> v = Value.Int 0) in
        let read v = Seq_model.Event.Rlx_read (Loc.make "Y", v) in
        check_bool "0 allowed" true (O.allows om [ read (Value.Int 0) ]);
        check_bool "1 refused" false (O.allows om [ read (Value.Int 1) ]);
        (* no monotonicity obligation for reads: the label order relates
           write values to undef, not read values *)
        check_bool "undef refusable" false (O.allows om [ read Value.Undef ]));
    (* §3's second counterexample, now with the explicit oracle: the source
       of   a := x^rlx; if a = 1 { 1/0 }; loop   can only reach ⊥ by
       reading 1; under the environment that never offers 1 it has no
       UB behavior, while the target ⊥s with an empty trace. *)
    test "the §3 oracle counterexample, concretely" (fun () ->
        let d = domain [ "a = Y.load(rlx); if a == 1 { b = 1/0 }; return a" ] in
        let src = cfg "a = Y.load(rlx); if a == 1 { b = 1/0 }; return a" in
        let tgt = cfg "b = 1/0; a = Y.load(rlx); return a" in
        let adversary = O.reads_satisfy (Loc.make "Y") (fun v -> v = Value.Int 0) in
        let src_behs = Seq_ref.Behavior.allowed d adversary ~fuel:10 src in
        let tgt_behs = Seq_ref.Behavior.allowed d adversary ~fuel:10 tgt in
        check_bool "target still reaches ⊥ (trace ε ∈ Tr(Ω))" true
          (has_bot tgt_behs);
        check_bool "source cannot reach ⊥ under this oracle" false
          (has_bot src_behs));
    (* ...whereas for the late-UB example the source ⊥s for EVERY oracle:
       its racy write does not depend on the read. *)
    test "late-UB source fails under the adversarial oracle too" (fun () ->
        let d = domain [ "a = Y.load(rlx); X.store(na, 1); return a" ] in
        (* no permission on X: the na write is racy *)
        let src = cfg "a = Y.load(rlx); X.store(na, 1); return a" in
        let adversary =
          O.both
            (O.reads_satisfy (Loc.make "Y") (fun v -> v = Value.Int 0))
            O.no_permission_gain
        in
        let src_behs = Seq_ref.Behavior.allowed d adversary ~fuel:10 src in
        check_bool "source reaches ⊥ anyway" true (has_bot src_behs));
    test "drop_all_on_release constrains release labels" (fun () ->
        let d = domain [ "X.store(na,1); Y.store(rel, 1)" ] in
        let c = cfg ~perm:[ "X" ] "X.store(na,1); Y.store(rel, 1)" in
        let behs = Seq_ref.Behavior.allowed d O.drop_all_on_release ~fuel:10 c in
        B.Set.iter
          (fun (tr, _) ->
            List.iter
              (function
                | Seq_model.Event.Rel r ->
                  check_bool "post-permissions empty" true
                    (Loc.Set.is_empty r.Seq_model.Event.rpost)
                | _ -> ())
              tr)
          behs);
  ]
