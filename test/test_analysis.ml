(* Static analysis layer: paths, dataflow tables, permission/mode/liveness
   analyses, lint diagnostics, and the static fast-path certifier.

   The load-bearing properties are differential, checked by QCheck:
   - racy-access soundness: every dynamic racy access SEQ can perform
     (over all initial permission sets and memories) is statically
     flagged — so a program the linter calls race-clean has none;
   - fast-path soundness: a static certificate is never issued for a
     pair whose advanced refinement enumeration refutes, and validation
     verdicts are identical with and without the fast path. *)

open Lang

let parse = Parser.stmt_of_string
let values2 = [ Value.Int 0; Value.Int 1 ]

let path_testable =
  Alcotest.testable Analysis.Path.pp Analysis.Path.equal

(* ------------------------------------------------------------------ *)
(* Paths                                                                *)
(* ------------------------------------------------------------------ *)

let test_path_roundtrip () =
  let s =
    parse
      "X.store(na, 1); a = Y.load(acq); \
       if a == 1 { b = X.load(na) } else { b = 0 }; \
       while b < 2 { b = b + 1 }; return b"
  in
  let count = ref 0 in
  Analysis.Path.iter_leaves s ~f:(fun path leaf ->
      incr count;
      match Analysis.Path.find s path with
      | Some leaf' ->
        Alcotest.(check bool)
          (Analysis.Path.to_string path ^ " resolves to its leaf")
          true
          (Stdlib.compare leaf leaf' = 0)
      | None -> Alcotest.fail "path does not resolve");
  Alcotest.(check bool) "saw several leaves" true (!count >= 6);
  Alcotest.(check string) "root renders as /" "/"
    (Analysis.Path.to_string Analysis.Path.root)

let test_path_describe () =
  let s = parse "X.store(na, 1); a = X.load(na)" in
  let descrs = ref [] in
  Analysis.Path.iter_leaves s ~f:(fun path _ ->
      descrs := Analysis.Path.describe s path :: !descrs);
  Alcotest.(check bool) "descriptions are nonempty" true
    (List.for_all (fun d -> String.length d > 0) !descrs)

(* ------------------------------------------------------------------ *)
(* Permission analysis                                                  *)
(* ------------------------------------------------------------------ *)

let racy_pairs s =
  List.sort_uniq compare
    (List.map
       (fun (a : Analysis.Perm.access) -> (a.kind, a.loc))
       (Analysis.Perm.racy_accesses s))

let test_perm_basic () =
  let x = Loc.make "X" in
  (* the store itself is possibly racy; the read after it is covered *)
  let s = parse "X.store(na, 1); a = X.load(na); return a" in
  Alcotest.(check (list (pair string string)))
    "only the store flags"
    [ ("write", "X") ]
    (List.map
       (fun (k, l) ->
         ((match k with `Read -> "read" | `Write -> "write"), Loc.name l))
       (racy_pairs s));
  (* a release destroys the fact *)
  let s2 = parse "X.store(na, 1); Y.store(rel, 1); a = X.load(na); return a" in
  Alcotest.(check bool) "read after release flags" true
    (List.mem (`Read, x) (racy_pairs s2));
  (* an acquire preserves it *)
  let s3 = parse "X.store(na, 1); a = Y.load(acq); b = X.load(na); return b" in
  Alcotest.(check bool) "read after acquire does not flag" false
    (List.mem (`Read, x) (racy_pairs s3))

let test_perm_join () =
  (* fact must survive only when forced on both branches *)
  let s =
    parse
      "a = Y.load(rlx); \
       if a == 1 { X.store(na, 1) } else { X.store(na, 2) }; \
       b = X.load(na); return b"
  in
  let x = Loc.make "X" in
  Alcotest.(check bool) "covered after both-branch write" false
    (List.mem (`Read, x) (racy_pairs s));
  let s2 =
    parse
      "a = Y.load(rlx); \
       if a == 1 { X.store(na, 1) } else { Y.store(rel, 1) }; \
       b = X.load(na); return b"
  in
  Alcotest.(check bool) "not covered after one-branch release" true
    (List.mem (`Read, x) (racy_pairs s2))

let test_perm_loop () =
  (* the loop may run zero times: facts forced only inside do not leak *)
  let s =
    parse
      "i = 0; while i < 2 { X.store(na, 1); i = i + 1 }; \
       a = X.load(na); return a"
  in
  let x = Loc.make "X" in
  Alcotest.(check bool) "read after maybe-zero-trip loop flags" true
    (List.mem (`Read, x) (racy_pairs s));
  (* but a pre-loop write makes everything covered, loop or not *)
  let s2 =
    parse
      "X.store(na, 0); i = 0; while i < 2 { X.store(na, 1); i = i + 1 }; \
       a = X.load(na); return a"
  in
  Alcotest.(check (list (pair string string)))
    "only the initial store flags"
    [ ("write", "X") ]
    (List.map
       (fun (k, l) ->
         ((match k with `Read -> "read" | `Write -> "write"), Loc.name l))
       (racy_pairs s2))

let test_store_intro () =
  (* after x :=na v the written-set justifies a redundant store; after a
     release it does not *)
  let unsafe s =
    List.map (fun (_, l) -> Loc.name l) (Analysis.Perm.store_intro_unsafe s)
  in
  Alcotest.(check (list string)) "second store is F-covered" [ "X" ]
    (unsafe (parse "X.store(na, 1); X.store(na, 2)"));
  Alcotest.(check (list string)) "release resets F" [ "X"; "X" ]
    (unsafe (parse "X.store(na, 1); Y.store(rel, 1); X.store(na, 2)"))

(* ------------------------------------------------------------------ *)
(* Mode-consistency analysis                                            *)
(* ------------------------------------------------------------------ *)

let test_modes_static_vs_runtime () =
  (* per-thread conflicts are exactly what Config.check_no_mixing raises
     on; combined conflicts are strictly stronger (cross-thread mixing) *)
  let cases =
    [
      [ parse "X.store(na, 1); a = X.load(na); return a" ];
      [ parse "X.store(na, 1); a = X.load(rlx); return a" ];
      [ parse "X.store(rlx, 1); a = X.load(acq); return a" ];
      Parser.threads_of_string
        "X.store(na, 1); Y.store(rel, 1) ||| a = Y.load(acq); b = X.load(na)";
      Parser.threads_of_string
        "X.store(na, 1) ||| a = X.load(acq); return a";
    ]
  in
  List.iter
    (fun threads ->
      let static = Analysis.Modes.per_thread_conflicts threads <> [] in
      let dynamic =
        match Seq_model.Config.check_no_mixing threads with
        | () -> false
        | exception Seq_model.Config.Mixed_access _ -> true
      in
      Alcotest.(check bool) "per-thread static mixing = runtime mixing"
        dynamic static;
      (* combined ⊇ per-thread *)
      if static then
        Alcotest.(check bool) "combined conflicts subsume per-thread" false
          (Analysis.Modes.consistent threads))
    cases;
  (* cross-thread mixing: invisible to the runtime check, caught combined *)
  let cross =
    Parser.threads_of_string "X.store(na, 1) ||| a = X.load(acq); return a"
  in
  Alcotest.(check bool) "cross-thread mixing has no per-thread conflict" true
    (Analysis.Modes.per_thread_conflicts cross = []);
  Alcotest.(check bool) "cross-thread mixing is combined-inconsistent" false
    (Analysis.Modes.consistent cross)

let test_modes_catalog () =
  (* no catalog program is mixed — and the linter agrees with the runtime
     check on every one of them *)
  List.iter
    (fun (c : Litmus.Catalog.concurrent) ->
      let threads = Parser.threads_of_string c.Litmus.Catalog.threads in
      Alcotest.(check bool)
        (c.Litmus.Catalog.cname ^ " is mode-consistent")
        true
        (Analysis.Modes.consistent threads))
    Litmus.Catalog.concurrent_programs;
  List.iter
    (fun (t : Litmus.Catalog.transformation) ->
      let src = parse t.Litmus.Catalog.src
      and tgt = parse t.Litmus.Catalog.tgt in
      Alcotest.(check bool)
        (t.Litmus.Catalog.name ^ " src is mode-consistent alone")
        true
        (Analysis.Modes.consistent [ src ]);
      Alcotest.(check bool)
        (t.Litmus.Catalog.name ^ " tgt is mode-consistent alone")
        true
        (Analysis.Modes.consistent [ tgt ]);
      (* exactly one corpus pair changes a location's mode class between
         src and tgt: the na→rlx strengthening, legal input that the
         refinement check (not a well-formedness gate) refutes *)
      Alcotest.(check bool)
        (t.Litmus.Catalog.name ^ " combined consistency")
        (t.Litmus.Catalog.name <> "no-na-to-rlx-strengthening")
        (Analysis.Modes.consistent [ src; tgt ]))
    Litmus.Catalog.transformations

let test_modes_conflict_sites () =
  let threads =
    Parser.threads_of_string "X.store(na, 1) ||| a = X.load(acq); return a"
  in
  match Analysis.Modes.combined_conflicts threads with
  | [ c ] ->
    Alcotest.(check string) "conflict location" "X" (Loc.name c.Analysis.Modes.cloc);
    Alcotest.(check int) "na witness thread" 0 c.Analysis.Modes.na_site.Analysis.Modes.thread;
    Alcotest.(check int) "at witness thread" 1 c.Analysis.Modes.at_site.Analysis.Modes.thread
  | l -> Alcotest.failf "expected exactly one conflict, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Liveness and pass sites                                              *)
(* ------------------------------------------------------------------ *)

let test_live_dead_assignments () =
  let s = parse "a = 1; a = 2; b = X.load(na); return a" in
  let dead = Analysis.Live.dead_assignments s in
  (* dead: the first a = 1 (overwritten) and the unused load into b *)
  Alcotest.(check int) "two dead assignments" 2 (List.length dead);
  let _, _, _, dae_sites = Optimizer.Dae.run s in
  List.iter
    (fun (path, _) ->
      Alcotest.(check bool)
        ("DAE removes " ^ Analysis.Path.to_string path)
        true
        (List.exists (Analysis.Path.equal path) dae_sites))
    dead

let test_pass_sites_resolve () =
  (* every rewrite site recorded by a pass names a real node of its input *)
  let progs =
    [
      parse
        "X.store(na, 2); l = Y.load(acq); \
         if l == 0 { a = X.load(na); Y.store(rel, 1) }; \
         b = X.load(na); return 10*a + b";
      parse
        "X.store(na, 1); X.store(na, 2); s = 0; i = 0; \
         while i < 2 { a = X.load(na); b = X.load(na); s = s + a + b; \
         i = i + 1 }; return s";
    ]
  in
  List.iter
    (fun s ->
      List.iter
        (fun pass ->
          let _, rewrites, _, sites = Optimizer.Driver.run_pass pass s in
          if pass <> Optimizer.Driver.CP && pass <> Optimizer.Driver.LICM then
            Alcotest.(check int)
              (Optimizer.Driver.pass_name pass ^ ": one site per rewrite")
              rewrites (List.length sites);
          List.iter
            (fun p ->
              Alcotest.(check bool)
                (Optimizer.Driver.pass_name pass ^ " site "
                 ^ Analysis.Path.to_string p ^ " resolves")
                true
                (Analysis.Path.find s p <> None))
            sites)
        Optimizer.Driver.all_passes)
    progs

(* ------------------------------------------------------------------ *)
(* Lint                                                                 *)
(* ------------------------------------------------------------------ *)

let rules diags = List.map (fun d -> d.Optimizer.Lint.rule) diags

let test_lint_rules () =
  let diags =
    Optimizer.Lint.lint
      (Parser.threads_of_string "X.store(na, 1) ||| a = X.load(acq); return a")
  in
  Alcotest.(check bool) "mixed flagged" true
    (List.mem Optimizer.Lint.Mixed_access (rules diags));
  Alcotest.(check bool) "mixed is an error" true
    (Optimizer.Lint.has_errors diags);
  let diags2 =
    Optimizer.Lint.lint [ parse "X.store(na, 1); X.store(na, 2); a = X.load(na); return a" ]
  in
  Alcotest.(check bool) "dead store hint" true
    (List.mem Optimizer.Lint.Dead_store (rules diags2));
  Alcotest.(check bool) "redundant load hint" true
    (List.mem Optimizer.Lint.Redundant_load (rules diags2));
  let clean = Optimizer.Lint.lint [ parse "a = Y.load(acq); Y.store(rel, a); return a" ] in
  Alcotest.(check (list string)) "atomic-only program is clean" []
    (List.map (fun d -> Optimizer.Lint.rule_name d.Optimizer.Lint.rule) clean)

let test_lint_mixed_always_flagged () =
  (* acceptance: seqlint flags every Mixed_access program statically *)
  let mixed_cases =
    [
      "X.store(na, 1); a = X.load(rlx); return a";
      "X.store(rlx, 1); a = X.load(na); return a";
      "a = X.load(na) ||| b = X.load(acq)";
      "X.store(na, 1) ||| b = fadd(X, 1)";
    ]
  in
  List.iter
    (fun text ->
      let threads = Parser.threads_of_string text in
      let diags = Optimizer.Lint.lint ~hints:false threads in
      Alcotest.(check bool)
        ("mixed diagnosed: " ^ text)
        true
        (List.mem Optimizer.Lint.Mixed_access (rules diags)))
    mixed_cases

(* ------------------------------------------------------------------ *)
(* Static fast-path certifier                                           *)
(* ------------------------------------------------------------------ *)

let test_certify_corpus () =
  (* the certifier may fire only on pairs whose expected advanced verdict
     is Sound, its certificates must replay, and it must fire on a
     nontrivial part of the corpus *)
  let hits = ref 0 in
  List.iter
    (fun (t : Litmus.Catalog.transformation) ->
      let src = parse t.Litmus.Catalog.src
      and tgt = parse t.Litmus.Catalog.tgt in
      match Optimizer.Certify.attempt ~src ~tgt () with
      | None -> ()
      | Some c ->
        incr hits;
        Alcotest.(check string)
          (t.Litmus.Catalog.name ^ ": static cert only on sound pairs")
          "sound"
          (Litmus.Catalog.verdict_to_string t.Litmus.Catalog.advanced);
        Alcotest.(check bool)
          (t.Litmus.Catalog.name ^ ": certificate replays")
          true
          (Optimizer.Certify.replay c ~src ~tgt))
    Litmus.Catalog.transformations;
  Alcotest.(check bool) "nonzero corpus hit rate" true (!hits > 0)

let test_certify_refuses_mixed () =
  let src = parse "X.store(na, 1); a = X.load(rlx); return a" in
  Alcotest.(check bool) "no certificate for mixed programs" true
    (Optimizer.Certify.attempt ~src ~tgt:src () = None)

let test_validate_provenance () =
  (* certified_optimize output is its own pipeline image: static route *)
  let s = parse "X.store(na, 1); a = X.load(na); b = X.load(na); return a + b" in
  let _, v = Optimizer.Validate.certified_optimize ~values:values2 s in
  (match v.Optimizer.Validate.proof with
   | Optimizer.Validate.Static _ -> ()
   | Optimizer.Validate.Static_abs _ ->
     Alcotest.fail "pipeline images take the replay route, not the abstract one"
   | Optimizer.Validate.Enumerated -> Alcotest.fail "expected the static route");
  Alcotest.(check bool) "valid" true v.Optimizer.Validate.valid;
  (* with the fast path off, same verdict through enumeration *)
  let _, v' =
    Optimizer.Validate.certified_optimize ~values:values2 ~fast_path:false s
  in
  (match v'.Optimizer.Validate.proof with
   | Optimizer.Validate.Enumerated -> ()
   | Optimizer.Validate.Static _ | Optimizer.Validate.Static_abs _ ->
     Alcotest.fail "fast path was disabled");
  Alcotest.(check bool) "same valid" v.Optimizer.Validate.valid
    v'.Optimizer.Validate.valid;
  Alcotest.(check bool) "same simple" v.Optimizer.Validate.simple
    v'.Optimizer.Validate.simple


(* ------------------------------------------------------------------ *)
(* seqabs: value numbering, available accesses, static DRF              *)
(* ------------------------------------------------------------------ *)

(* Degenerate nested loops: the fixpoint terminates with no widening
   bound (the must-state chain shrinks pointwise), and only
   iteration-independent bindings survive the join. *)
let test_vn_nested_loops () =
  let s =
    parse
      "a = 1; b = a + 1; c = 0; \
       while (d < 2) { while (e < 2) { e = e + 1; c = c + 1 }; d = d + 1 }; \
       return b + c"
  in
  let facts = Analysis.Vn.analyze s in
  let ret_state =
    match
      List.find_map
        (fun (p, st) ->
          match Analysis.Path.find s p with
          | Some (Stmt.Return _) -> Some st
          | _ -> None)
        (Analysis.Path.Map.bindings facts)
    with
    | Some st -> st
    | None -> Alcotest.fail "no before-fact recorded at the return"
  in
  let bound r = Analysis.Vn.reg_vn ret_state (Reg.make r) <> None in
  Alcotest.(check bool) "loop-independent a survives" true (bound "a");
  Alcotest.(check bool) "loop-independent b survives" true (bound "b");
  Alcotest.(check bool) "iteration-dependent c is dropped" false (bound "c");
  Alcotest.(check bool) "loop counter d is dropped" false (bound "d");
  Alcotest.(check bool) "inner counter e is dropped" false (bound "e")

(* loop_fix directly on degenerate bodies: identity stabilizes
   immediately; a body rebinding a register to a fresh number every
   probe converges by dropping the binding. *)
let test_vn_loop_fix_degenerate () =
  let ctx = Analysis.Vn.create () in
  let a = Reg.make "a" in
  let st0 =
    Analysis.Vn.transfer ctx Analysis.Vn.empty
      (Stmt.Assign (a, Expr.int 1))
  in
  let _, iters = Analysis.Vn.loop_fix (fun st -> st) st0 in
  Alcotest.(check bool) "identity body stabilizes immediately" true
    (iters <= 2);
  let step st =
    { st with Analysis.Vn.regs = Reg.Map.add a (Analysis.Vn.fresh ctx)
                                   st.Analysis.Vn.regs }
  in
  let stf, iters' = Analysis.Vn.loop_fix step st0 in
  Alcotest.(check bool) "fresh-per-probe binding is dropped" true
    (Analysis.Vn.reg_vn stf a = None);
  Alcotest.(check bool) "convergence within the binding count" true
    (iters' <= 3)

let test_avail_findings () =
  let s =
    parse
      "X.store(na, 1); a = X.load(na); b = X.load(na); X.store(na, b); \
       return b"
  in
  let fs = Analysis.Avail.analyze s in
  let kinds =
    List.sort_uniq compare
      (List.map
         (fun f -> (Analysis.Avail.kind_name f.Analysis.Avail.kind,
                    f.Analysis.Avail.permitted))
         fs)
  in
  Alcotest.(check bool) "the second load is redundant (permitted)" true
    (List.mem ("redundant-load", true) kinds);
  Alcotest.(check bool) "the write-back store is a noop (permitted)" true
    (List.mem ("noop-store", true) kinds)

(* Static DRF vs the promising-machine reference: every Race_free
   verdict must be confirmed by the promise-free race check, and the
   ownership-protocol needle (MP-rel-acq) must actually be certified. *)
let test_drf_catalog_agreement () =
  let verdicts =
    List.map
      (fun (c : Litmus.Catalog.concurrent) ->
        let threads = Parser.threads_of_string c.Litmus.Catalog.threads in
        (c.Litmus.Catalog.cname, threads, Analysis.Drf.certify threads))
      Litmus.Catalog.concurrent_programs
  in
  let race_free =
    List.filter_map
      (fun (nm, threads, v) ->
        match v with
        | Analysis.Drf.Race_free _ -> Some (nm, threads)
        | Analysis.Drf.Unproven _ -> None)
      verdicts
  in
  Alcotest.(check bool) "MP-rel-acq certified race-free" true
    (List.mem_assoc "MP-rel-acq" race_free);
  Alcotest.(check bool) "WW-race stays unproven" true
    (List.for_all (fun (nm, _) -> nm <> "WW-race") race_free);
  List.iter
    (fun (nm, threads) ->
      let r = Baselines.Drf.check threads in
      Alcotest.(check bool)
        (nm ^ ": promise-free reference confirms race-freedom") true
        r.Baselines.Drf.pf_race_free)
    race_free

(* Certabs on the catalog: never certifies an advanced-unsound pair, and
   covers strictly more of it than pipeline replay (the E14 uplift). *)
let test_certabs_corpus () =
  let replay = ref 0 and union = ref 0 in
  List.iter
    (fun (t : Litmus.Catalog.transformation) ->
      let src = Parser.stmt_of_string t.Litmus.Catalog.src in
      let tgt = Parser.stmt_of_string t.Litmus.Catalog.tgt in
      let c = Optimizer.Certify.attempt ~src ~tgt () in
      let a = Optimizer.Certabs.attempt ~src ~tgt () in
      if c <> None then incr replay;
      if c <> None || a <> None then incr union;
      if a <> None then
        Alcotest.(check string)
          (t.Litmus.Catalog.name ^ ": abstract certificates are sound")
          "sound"
          (Litmus.Catalog.verdict_to_string t.Litmus.Catalog.advanced))
    Litmus.Catalog.transformations;
  Alcotest.(check bool)
    "abstract tier certifies strictly more than pipeline replay" true
    (!union > !replay)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                    *)
(* ------------------------------------------------------------------ *)

let small_cfg =
  {
    Gen.default_config with
    Gen.na_locs = [ Loc.make "X" ];
    at_locs = [ Loc.make "Y" ];
    regs = [ Reg.make "a"; Reg.make "b" ];
    values = [ 0; 1 ];
  }

let stmt_arbitrary cfg ~size =
  QCheck.make
    ~print:(fun s -> Stmt.to_string s)
    (fun rand -> Gen.gen_program cfg rand ~size)

(* All (kind, loc) pairs of racy non-atomic accesses SEQ can actually
   perform, over every initial permission set and memory of the domain —
   a bounded but exhaustive-within-fuel exploration via the set-based
   [Seq_ref.Moves.moves].  This walk is the reference for the fuzz
   oracles' packed one ({!Fuzz.Oracle.dynamic_racy}), which must visit
   the same configurations in the same order: [budget] is charged one
   state per visited configuration, as there. *)
let dynamic_racy_pairs ?(budget = Engine.Budget.unlimited) (s : Stmt.t) :
    ([ `Read | `Write ] * Loc.t) list =
  let module CSet = Set.Make (Seq_model.Config) in
  let d = Domain.of_stmts ~values:values2 [ s ] in
  let seen = ref CSet.empty in
  let acc = ref [] in
  let fuel = ref 30_000 in
  let rec visit cfg =
    if !fuel > 0 && not (CSet.mem cfg !seen) then begin
      decr fuel;
      Engine.Budget.spend_state budget;
      seen := CSet.add cfg !seen;
      (match Prog.step cfg.Seq_model.Config.prog with
       | Prog.Do_read (Mode.Rna, x, _)
         when not (Loc.Set.mem x cfg.Seq_model.Config.perm) ->
         acc := (`Read, x) :: !acc
       | Prog.Do_write (Mode.Wna, x, _, _)
         when not (Loc.Set.mem x cfg.Seq_model.Config.perm) ->
         acc := (`Write, x) :: !acc
       | _ -> ());
      List.iter
        (fun (_, next) ->
          match next with
          | Seq_ref.Moves.Cont c -> visit c
          | Seq_ref.Moves.Bot -> ())
        (Seq_ref.Moves.moves d cfg)
    end
  in
  List.iter
    (fun perm ->
      List.iter
        (fun mem -> visit (Seq_model.Config.make ~perm ~mem (Prog.init s)))
        (Domain.memories d))
    (Domain.subsets d.Domain.na_locs);
  List.sort_uniq compare !acc

(* Racy-access soundness: the static racy set covers the dynamic one, so
   a no-racy lint verdict means no execution races. *)
let lint_soundness =
  QCheck.Test.make ~name:"static racy accesses cover SEQ's dynamic races"
    ~count:30
    (stmt_arbitrary small_cfg ~size:4)
    (fun s ->
      let static = racy_pairs s in
      List.for_all (fun p -> List.mem p static) (dynamic_racy_pairs s))

(* Fast-path completeness on pipeline images: a prefix of the pipeline
   applied to s is always certified, and the certificate is honest. *)
let certify_pipeline_images =
  QCheck.Test.make ~name:"pipeline images always get a static certificate"
    ~count:30
    (QCheck.pair
       (QCheck.int_bound (List.length Optimizer.Driver.all_passes))
       (stmt_arbitrary small_cfg ~size:5))
    (fun (k, src) ->
      let prefix = List.filteri (fun i _ -> i < k) Optimizer.Driver.all_passes in
      let tgt =
        List.fold_left
          (fun cur p ->
            let cur', _, _, _ = Optimizer.Driver.run_pass p cur in
            cur')
          src prefix
      in
      match Optimizer.Certify.attempt ~src ~tgt () with
      | Some c -> Optimizer.Certify.replay c ~src ~tgt
      | None -> false)

(* Fast-path soundness: whenever a certificate is issued for a random
   pair, enumeration confirms the advanced refinement. *)
let certify_soundness =
  QCheck.Test.make
    ~name:"a static certificate is never refuted by enumeration" ~count:40
    (QCheck.pair
       (stmt_arbitrary small_cfg ~size:4)
       (stmt_arbitrary small_cfg ~size:4))
    (fun (src, tgt) ->
      match Optimizer.Certify.attempt ~src ~tgt () with
      | None -> QCheck.assume_fail ()
      | Some _ ->
        let d = Domain.of_stmts ~values:values2 [ src; tgt ] in
        Seq_model.Advanced.check d ~src ~tgt)

(* Verdict equivalence: the fast path changes the route, never the
   verdict. *)
let validate_route_independent =
  QCheck.Test.make ~name:"validation verdicts are route-independent"
    ~count:15
    (stmt_arbitrary small_cfg ~size:4)
    (fun s ->
      let _, v = Optimizer.Validate.certified_optimize ~values:values2 s in
      let _, v' =
        Optimizer.Validate.certified_optimize ~values:values2 ~fast_path:false
          s
      in
      v.Optimizer.Validate.valid = v'.Optimizer.Validate.valid
      && v.Optimizer.Validate.simple = v'.Optimizer.Validate.simple)

(* The sites a pass reports always name nodes of its input program. *)
let sites_always_resolve =
  QCheck.Test.make ~name:"pass rewrite sites resolve in the input" ~count:50
    (stmt_arbitrary
       { small_cfg with Gen.allow_loops = true; regs = [ Reg.make "a"; Reg.make "b"; Reg.make "c" ] }
       ~size:6)
    (fun s ->
      List.for_all
        (fun pass ->
          let _, _, _, sites = Optimizer.Driver.run_pass pass s in
          List.for_all (fun p -> Analysis.Path.find s p <> None) sites)
        Optimizer.Driver.all_passes)


(* Static_abs soundness: whenever the abstract certifier accepts a
   random pair, enumeration confirms the advanced refinement. *)
let certabs_soundness =
  QCheck.Test.make
    ~name:"an abstract certificate is never refuted by enumeration"
    ~count:40
    (QCheck.pair
       (stmt_arbitrary small_cfg ~size:4)
       (stmt_arbitrary small_cfg ~size:4))
    (fun (src, tgt) ->
      match Optimizer.Certabs.attempt ~src ~tgt () with
      | None -> QCheck.assume_fail ()
      | Some _ ->
        let d = Domain.of_stmts ~values:values2 [ src; tgt ] in
        Seq_model.Advanced.check d ~src ~tgt)

(* Analysis facts are invariant under Stmt.normalize: paths move, but
   the observable facts (racy accesses, availability findings, lint
   rules with their severities and locations) must not. *)
let facts_normalize_invariant =
  let avail_sig s =
    List.sort compare
      (List.map
         (fun f ->
           (f.Analysis.Avail.loc, f.Analysis.Avail.kind,
            f.Analysis.Avail.permitted))
         (Analysis.Avail.analyze s))
  in
  let lint_sig s =
    List.sort compare
      (List.map
         (fun d ->
           (d.Optimizer.Lint.rule, d.Optimizer.Lint.sev, d.Optimizer.Lint.loc))
         (Optimizer.Lint.lint [ s ]))
  in
  QCheck.Test.make ~name:"analysis facts are invariant under normalize"
    ~count:40
    (stmt_arbitrary small_cfg ~size:5)
    (fun s ->
      let n = Stmt.normalize s in
      List.sort_uniq compare (racy_pairs s)
      = List.sort_uniq compare (racy_pairs n)
      && avail_sig s = avail_sig n
      && lint_sig s = lint_sig n)

let qcheck_tests =
  List.map (QCheck_alcotest.to_alcotest ~long:false)
    [
      lint_soundness;
      certify_pipeline_images;
      certify_soundness;
      certabs_soundness;
      facts_normalize_invariant;
      validate_route_independent;
      sites_always_resolve;
    ]

let suite =
  [
    Alcotest.test_case "path: iter_leaves/find round-trip" `Quick
      test_path_roundtrip;
    Alcotest.test_case "path: describe is single-line" `Quick
      test_path_describe;
    Alcotest.test_case "perm: store covers, release destroys, acquire keeps"
      `Quick test_perm_basic;
    Alcotest.test_case "perm: joins intersect" `Quick test_perm_join;
    Alcotest.test_case "perm: loop facts do not leak" `Quick test_perm_loop;
    Alcotest.test_case "perm: store-introduction regions" `Quick
      test_store_intro;
    Alcotest.test_case "modes: static = runtime mixing" `Quick
      test_modes_static_vs_runtime;
    Alcotest.test_case "modes: catalog is mode-consistent" `Quick
      test_modes_catalog;
    Alcotest.test_case "modes: conflict cites both sites" `Quick
      test_modes_conflict_sites;
    Alcotest.test_case "live: dead assignments are DAE's sites" `Quick
      test_live_dead_assignments;
    Alcotest.test_case "passes: sites resolve and count rewrites" `Quick
      test_pass_sites_resolve;
    Alcotest.test_case "lint: rule coverage" `Quick test_lint_rules;
    Alcotest.test_case "lint: every mixed program flagged statically" `Quick
      test_lint_mixed_always_flagged;
    Alcotest.test_case "certify: corpus hits are sound and replay" `Quick
      test_certify_corpus;
    Alcotest.test_case "certify: mixed programs refused" `Quick
      test_certify_refuses_mixed;
    Alcotest.test_case "validate: provenance and route equivalence" `Quick
      test_validate_provenance;
    Alcotest.test_case "vn: nested-loop fixpoint keeps only invariants"
      `Quick test_vn_nested_loops;
    Alcotest.test_case "vn: loop_fix on degenerate bodies" `Quick
      test_vn_loop_fix_degenerate;
    Alcotest.test_case "avail: redundant load and noop store cited" `Quick
      test_avail_findings;
    Alcotest.test_case "drf: static certifier agrees with the reference"
      `Quick test_drf_catalog_agreement;
    Alcotest.test_case "certabs: corpus coverage is sound and uplifting"
      `Quick test_certabs_corpus;
  ]
  @ qcheck_tests
