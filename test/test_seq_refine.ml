(* Simple behavioral refinement in SEQ (§2, Def 2.4) over the whole litmus
   corpus: every transformation the paper validates must be accepted, every
   counterexample refuted — with the expected verdicts recorded in
   Litmus.Catalog. *)

open Lang
module C = Litmus.Catalog

let values = Domain.default_values

let check_simple (tr : C.transformation) =
  let src = Parser.stmt_of_string tr.C.src in
  let tgt = Parser.stmt_of_string tr.C.tgt in
  let d = Domain.of_stmts ~values [ src; tgt ] in
  if Seq_model.Refine.check d ~src ~tgt then C.Sound else C.Unsound

let suite =
  List.map
    (fun (tr : C.transformation) ->
      let name = Printf.sprintf "%s [%s]" tr.C.name tr.C.paper_ref in
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string)
            "simple refinement verdict"
            (C.verdict_to_string tr.C.simple)
            (C.verdict_to_string (check_simple tr))))
    C.transformations

(* The quantify-written flag must not change any verdict: all F-conditions
   are monotone in a common initial F (see Refine.initial_pairs). *)
let written_quantification_suite =
  let pick =
    [ "overwritten-store-elim"; "na-write-then-rel"; "store-intro-after-rel" ]
  in
  List.filter_map
    (fun name ->
      Option.map
        (fun (tr : C.transformation) ->
          Alcotest.test_case ("quantify-written: " ^ name) `Quick (fun () ->
              let src = Parser.stmt_of_string tr.C.src in
              let tgt = Parser.stmt_of_string tr.C.tgt in
              let d = Domain.of_stmts ~values [ src; tgt ] in
              let v1 = Seq_model.Refine.check d ~src ~tgt in
              let v2 =
                Seq_model.Refine.check ~quantify_written:true d ~src ~tgt
              in
              Alcotest.(check bool) "same verdict" v1 v2))
        (C.find_transformation name))
    pick

let suite = suite @ written_quantification_suite

(* The rendered counterexample of every refuted entry. *)
let counterexample_golden =
  [
    ( "reorder-na-rw-same",
      "counterexample (initial P={X}, M=[X↦0]):\ntarget trace: \ntermination mismatch: target trm(1,{X},[X↦1]) vs source trm(0,{X},[X↦1])" );
    ( "write-after-read-intro",
      "counterexample (initial P={X}, M=[X↦1]):\ntarget trace: \npartial behavior mismatch: target writes {X} but the source can only reach written set {}" );
    ( "write-before-loop",
      "counterexample (initial P={}, M=[X↦undef]):\ntarget trace: \nthe target reaches ⊥ but the source cannot" );
    ( "write-before-loop-after-write",
      "counterexample (initial P={X}, M=[X↦1]):\ntarget trace: \npartial behavior mismatch: target writes {X} but the source can only reach written set {}" );
    ( "acq-then-na-write",
      "counterexample (initial P={}, M=[X↦undef]):\ntarget trace: \nthe target reaches ⊥ but the source cannot" );
    ( "na-write-then-rel",
      "counterexample (initial P={X}, M=[X↦undef]):\ntarget trace: W^rel(Y,1)[P:{X}→{},F:{},V:[X↦undef]]\nthe source cannot answer the target action W^rel(Y,1)[P:{X}→{},F:{},V:[X↦undef]]" );
    ( "acq-then-na-read",
      "counterexample (initial P={}, M=[X↦undef]):\ntarget trace: R^acq(Y,undef)[P:{}→{X},F:{},V:[X↦0]]\ntermination mismatch: target trm(undef,{},[X↦0]) vs source trm(0,{},[X↦0])" );
    ( "na-read-then-rel",
      "counterexample (initial P={X}, M=[X↦0]):\ntarget trace: W^rel(Y,1)[P:{X}→{},F:{},V:[X↦0]]\ntermination mismatch: target trm(undef,{},[X↦0]) vs source trm(0,{},[X↦0])" );
    ( "na-write-into-rel",
      "counterexample (initial P={}, M=[X↦undef]):\ntarget trace: \nthe target reaches ⊥ but the source cannot" );
    ( "store-intro-after-rel",
      "counterexample (initial P={X}, M=[X↦undef]):\ntarget trace: W^rel(Y,1)[P:{X}→{},F:{X},V:[X↦1]]\nthe target reaches ⊥ but the source cannot" );
    ( "slf-across-rel-acq",
      "counterexample (initial P={X}, M=[X↦undef]):\ntarget trace: W^rel(Y,2)[P:{X}→{},F:{X},V:[X↦1]]·R^acq(Z,undef)[P:{}→{X},F:{},V:[X↦0]]\ntermination mismatch: target trm(1,{},[X↦0]) vs source trm(0,{},[X↦0])" );
    ( "rlx-read-then-na-write",
      "counterexample (initial P={}, M=[X↦undef]):\ntarget trace: \nthe target reaches ⊥ but the source cannot" );
    ( "acq-then-div0",
      "counterexample (initial P={}, M=[]):\ntarget trace: \nthe target reaches ⊥ but the source cannot" );
    ( "ex3.1-end-to-end",
      "counterexample (initial P={}, M=[]):\ntarget trace: W^rlx(Y,1)\nthe source cannot answer the target action W^rlx(Y,1)" );
    ( "conditional-ub-hoist",
      "counterexample (initial P={}, M=[]):\ntarget trace: \nthe target reaches ⊥ but the source cannot" );
    ( "unconditional-ub-hoist",
      "counterexample (initial P={}, M=[]):\ntarget trace: \nthe target reaches ⊥ but the source cannot" );
    ( "dse-across-rel-write",
      "counterexample (initial P={X}, M=[X↦undef]):\ntarget trace: W^rel(Y,0)[P:{X}→{},F:{},V:[X↦undef]]\nthe source cannot answer the target action W^rel(Y,0)[P:{X}→{},F:{},V:[X↦undef]]" );
    ( "dse-across-rel-acq",
      "counterexample (initial P={X}, M=[X↦undef]):\ntarget trace: W^rel(Y,0)[P:{X}→{},F:{},V:[X↦undef]]\nthe source cannot answer the target action W^rel(Y,0)[P:{X}→{},F:{},V:[X↦undef]]" );
    ( "choose-then-rel",
      "counterexample (initial P={}, M=[]):\ntarget trace: W^rel(Y,1)[P:{}→{},F:{},V:[]]\nthe source cannot answer the target action W^rel(Y,1)[P:{}→{},F:{},V:[]]" );
    ( "choose-then-na-write",
      "counterexample (initial P={}, M=[X↦undef]):\ntarget trace: \nthe target reaches ⊥ but the source cannot" );
    ( "freeze-then-rel",
      "counterexample (initial P={}, M=[]):\ntarget trace: W^rel(Y,1)[P:{}→{},F:{},V:[]]\nthe source cannot answer the target action W^rel(Y,1)[P:{}→{},F:{},V:[]]" );
    ( "acq-fence-then-na-write",
      "counterexample (initial P={}, M=[X↦undef]):\ntarget trace: \nthe target reaches ⊥ but the source cannot" );
    ( "no-slf-across-rel-then-cas",
      "counterexample (initial P={X}, M=[X↦undef]):\ntarget trace: W^rel(Y,1)[P:{X}→{},F:{X},V:[X↦1]]·U^acq(Z,0)[P:{}→{X},F:{},V:[X↦0]]·U^rel(Z,1)[P:{X}→{X},F:{},V:[X↦0]]\ntermination mismatch: target trm(4,{},[X↦0]) vs source trm(3,{},[X↦0])" );
    ( "no-slf-across-sc-fence",
      "counterexample (initial P={X}, M=[X↦undef]):\ntarget trace: F^sc-rel[P:{X}→{},F:{X},V:[X↦1]]·F^sc-acq[P:{}→{X},F:{},V:[X↦0]]\ntermination mismatch: target trm(1,{},[X↦0]) vs source trm(0,{},[X↦0])" );
    ( "no-sc-fence-weakening",
      "counterexample (initial P={}, M=[]):\ntarget trace: F^rel[P:{}→{},F:{},V:[]]·F^acq[P:{}→{},F:{},V:[]]\nthe source cannot answer the target action F^rel[P:{}→{},F:{},V:[]]·F^acq[P:{}→{},F:{},V:[]]" );
    ( "no-acq-load-to-load-fwd",
      "counterexample (initial P={}, M=[]):\ntarget trace: R^acq(Y,undef)[P:{}→{},F:{},V:[]]\nthe target terminates but the source cannot" );
    ( "no-rlx-store-elim",
      "counterexample (initial P={}, M=[]):\ntarget trace: W^rlx(Y,2)\nthe source cannot answer the target action W^rlx(Y,2)" );
    ( "no-rlx-slf",
      "counterexample (initial P={}, M=[]):\ntarget trace: W^rlx(Y,1)\nthe target terminates but the source cannot" );
    ( "no-na-to-rlx-strengthening",
      "counterexample (initial P={X}, M=[X↦undef]):\ntarget trace: \nthe target performs a labeled action the source cannot answer" );
  ]

(* Every refuted transformation must come with an extractable
   counterexample, rendered exactly as pinned above; validated ones must
   not have one. *)
let counterexample_suite =
  [
    Alcotest.test_case "counterexamples exist exactly for refuted entries"
      `Quick (fun () ->
        let refuted =
          List.filter_map
            (fun (tr : C.transformation) ->
              let src = Parser.stmt_of_string tr.C.src in
              let tgt = Parser.stmt_of_string tr.C.tgt in
              let d = Domain.of_stmts ~values [ src; tgt ] in
              let roots =
                Seq_model.Refine.initial_pairs d ~src:(Prog.init src)
                  ~tgt:(Prog.init tgt)
              in
              let cex = Seq_model.Refine.find_counterexample d roots in
              match tr.C.simple, cex with
              | C.Sound, Some c ->
                Alcotest.failf "unexpected counterexample for %s: %s"
                  tr.C.name c.Seq_model.Refine.reason
              | C.Unsound, None ->
                Alcotest.failf "missing counterexample for %s" tr.C.name
              | C.Sound, None -> None
              | C.Unsound, Some c ->
                Alcotest.(check string)
                  (tr.C.name ^ ": rendered counterexample")
                  (Option.value ~default:"(no golden)"
                     (List.assoc_opt tr.C.name counterexample_golden))
                  (Fmt.str "%a" Seq_model.Refine.pp_counterexample c);
                Some tr.C.name)
            C.transformations
        in
        Alcotest.(check (list string))
          "every golden belongs to a refuted entry"
          (List.map fst counterexample_golden)
          refuted);
  ]

let suite = suite @ counterexample_suite

(* 17 non-atomic locations: one more than the packed core takes. *)
let seventeen_locations =
  String.concat "; "
    (List.init 17 (fun i -> Printf.sprintf "%c.store(na, 1)" (Char.chr (65 + i))))
  ^ "; return 0"

(* Beyond [Packed.max_locs] both games answer Unknown at once, before
   building the 2^17 x 4^17 initial pairs. *)
let unpackable_suite =
  [
    Alcotest.test_case "a 17-location domain is undecided" `Quick (fun () ->
        let p = Parser.stmt_of_string seventeen_locations in
        let d = Domain.of_stmts ~values [ p ] in
        let undecided name = function
          | Engine.Verdict.Unknown (Engine.Verdict.Trapped t) ->
            Alcotest.(check string)
              (name ^ ": reason") (Printexc.to_string Packed.Unpackable)
              t.Engine.Verdict.exn
          | v ->
            Alcotest.failf "%s: %s, expected UNKNOWN" name
              (Engine.Verdict.to_string v)
        in
        undecided "simple" (Seq_model.Refine.check_verdict d ~src:p ~tgt:p);
        undecided "advanced"
          (Seq_model.Advanced.check_verdict d ~src:p ~tgt:p));
  ]

let suite = suite @ unpackable_suite
