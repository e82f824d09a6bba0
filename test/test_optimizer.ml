(* The certified optimizer (§4, App D): pass outputs, Fig 4, analysis
   fixpoint bounds, and per-run translation validation. *)

open Lang
module D = Optimizer.Driver

let parse = Parser.stmt_of_string

let norm s = Stmt.to_string s

let check_output name ?passes src expected =
  Alcotest.test_case name `Quick (fun () ->
      let r = D.optimize ?passes (parse src) in
      Alcotest.(check string) "optimized output" (norm (parse expected))
        (norm r.D.output))

let check_valid name ?passes src =
  Alcotest.test_case (name ^ " validates") `Quick (fun () ->
      let r, v = Optimizer.Validate.certified_optimize ?passes (parse src) in
      ignore r;
      Alcotest.(check bool) "SEQ-valid" true v.Optimizer.Validate.valid)

let fig4_src =
  "X.store(na, 2); l = Y.load(acq); \
   if l == 0 { a = X.load(na); Y.store(rel, 1) }; \
   b = X.load(na); return 10*a + b"

let suite =
  [
    (* Fig 4: both loads become register assignments *)
    check_output "Fig 4 SLF" ~passes:[ D.SLF ] fig4_src
      "X.store(na, 2); l = Y.load(acq); \
       if l == 0 { a = 2; Y.store(rel, 1) }; \
       b = 2; return 10*a + b";
    check_valid "Fig 4 full pipeline" fig4_src;
    (* SLF respects the ⊤ transition at a rel-acq pair (Ex 2.12) *)
    check_output "SLF stops at rel-acq pair" ~passes:[ D.SLF ]
      "X.store(na, 1); Y.store(rel, 1); a = Z.load(acq); b = X.load(na); return b"
      "X.store(na, 1); Y.store(rel, 1); a = Z.load(acq); b = X.load(na); return b";
    check_output "SLF survives a single RMW" ~passes:[ D.SLF ]
      "X.store(na, 1); a = cas(Y, 0, 1); b = X.load(na); return b"
      "X.store(na, 1); a = cas(Y, 0, 1); b = 1; return b";
    check_output "SLF joins branches" ~passes:[ D.SLF ]
      "if c { X.store(na, 1) } else { X.store(na, 1) }; a = X.load(na); return a"
      "if c { X.store(na, 1) } else { X.store(na, 1) }; a = 1; return a";
    check_output "SLF join conflict blocks" ~passes:[ D.SLF ]
      "if c { X.store(na, 1) } else { X.store(na, 2) }; a = X.load(na); return a"
      "if c { X.store(na, 1) } else { X.store(na, 2) }; a = X.load(na); return a";
    (* LLF *)
    check_output "LLF forwards" ~passes:[ D.LLF ]
      "a = X.load(na); b = X.load(na); return 10*a + b"
      "a = X.load(na); b = a; return 10*a + b";
    check_output "LLF killed by acquire" ~passes:[ D.LLF ]
      "a = X.load(na); c = Y.load(acq); b = X.load(na); return 10*a + b"
      "a = X.load(na); c = Y.load(acq); b = X.load(na); return 10*a + b";
    check_output "LLF survives release" ~passes:[ D.LLF ]
      "a = X.load(na); Y.store(rel, 1); b = X.load(na); return 10*a + b"
      "a = X.load(na); Y.store(rel, 1); b = a; return 10*a + b";
    check_output "LLF killed by register reassignment" ~passes:[ D.LLF ]
      "a = X.load(na); a = 7; b = X.load(na); return 10*a + b"
      "a = X.load(na); a = 7; b = X.load(na); return 10*a + b";
    check_output "LLF register store forwarding (extension)" ~passes:[ D.LLF ]
      "X.store(na, a); b = X.load(na); return b"
      "X.store(na, a); b = a; return b";
    (* DSE *)
    check_output "DSE basic" ~passes:[ D.DSE ]
      "X.store(na, 1); X.store(na, 2)"
      "skip; X.store(na, 2)";
    check_output "DSE across release write (Ex 3.5)" ~passes:[ D.DSE ]
      "X.store(na, 1); Y.store(rel, 0); X.store(na, 2)"
      "skip; Y.store(rel, 0); X.store(na, 2)";
    check_output "DSE blocked by rel-acq pair" ~passes:[ D.DSE ]
      "X.store(na, 1); Y.store(rel, 0); a = Z.load(acq); X.store(na, 2); return a"
      "X.store(na, 1); Y.store(rel, 0); a = Z.load(acq); X.store(na, 2); return a";
    check_output "DSE blocked by read" ~passes:[ D.DSE ]
      "X.store(na, 1); a = X.load(na); X.store(na, 2); return a"
      "X.store(na, 1); a = X.load(na); X.store(na, 2); return a";
    check_output "DSE chain" ~passes:[ D.DSE ]
      "X.store(na, 1); X.store(na, 2); X.store(na, 3)"
      "skip; skip; X.store(na, 3)";
    (* LICM *)
    check_output "LICM hoists invariant load" ~passes:[ D.LICM ]
      "while b == 0 { a = X.load(na); b = Y.load(rlx) }; return a"
      "licm0 = X.load(na); while b == 0 { a = licm0; b = Y.load(rlx) }; return a";
    check_output "LICM blocked by store in loop" ~passes:[ D.LICM ]
      "while b == 0 { a = X.load(na); X.store(na, a + 1); b = Y.load(rlx) }; return a"
      "while b == 0 { a = X.load(na); X.store(na, a + 1); b = Y.load(rlx) }; return a";
    check_output "LICM blocked by acquire in loop" ~passes:[ D.LICM ]
      "while b == 0 { a = X.load(na); b = Y.load(acq) }; return a"
      "while b == 0 { a = X.load(na); b = Y.load(acq) }; return a";
    (* validation of each pass on the paper patterns *)
    check_valid "SLF pattern" ~passes:[ D.SLF ]
      "X.store(na, 1); a = Y.load(rlx); b = X.load(na); return 10*a + b";
    check_valid "LLF pattern" ~passes:[ D.LLF ]
      "a = X.load(na); Y.store(rel, 1); b = X.load(na); return 10*a + b";
    check_valid "DSE pattern" ~passes:[ D.DSE ]
      "X.store(na, 1); Y.store(rel, 0); X.store(na, 2)";
    check_valid "LICM pattern" ~passes:[ D.LICM ]
      "while b == 0 { a = X.load(na); b = Y.load(rlx) }; return a";
    (* §4: the SLF analysis reaches a loop fixpoint in ≤ 3 iterations *)
    Alcotest.test_case "SLF loop fixpoint within 3 iterations" `Quick
      (fun () ->
        let progs =
          [
            "X.store(na, 1); while b == 0 { a = X.load(na); b = Y.load(rlx) }; return a";
            "X.store(na, 1); while b == 0 { Y.store(rel, 1); a = X.load(na); \
             b = Y.load(rlx) }; return a";
            "X.store(na, 1); while b == 0 { Y.store(rel, 1); c = Y.load(acq); \
             a = X.load(na); b = c }; return a";
            "while b == 0 { X.store(na, 1); while c == 0 { a = X.load(na); \
             c = Y.load(rlx) }; b = Y.load(rlx) }; return a";
          ]
        in
        List.iter
          (fun src ->
            let _, _, iters, _ = Optimizer.Slf.run (parse src) in
            if iters > 3 then
              Alcotest.failf "fixpoint took %d iterations on %s" iters src)
          progs);
    (* idempotence: a second run finds nothing new *)
    Alcotest.test_case "pipeline idempotent on Fig 4" `Quick (fun () ->
        let r1 = D.optimize (parse fig4_src) in
        let r2 = D.optimize r1.D.output in
        Alcotest.(check string) "stable" (norm r1.D.output) (norm r2.D.output));
  ]

(* The sequential clean-up extensions: constant propagation and dead
   assignment elimination. *)
let extension_suite =
  [
    check_output "CP folds constants through registers" ~passes:[ D.CP ]
      "a = 2; b = a + 1; X.store(na, b); return b"
      "a = 2; b = 3; X.store(na, 3); return 3";
    check_output "CP never folds divisions" ~passes:[ D.CP ]
      "a = 0; b = 1 / a; return b"
      "a = 0; b = 1 / 0; return b";
    check_output "CP is killed by loads" ~passes:[ D.CP ]
      "a = 2; a = X.load(na); b = a + 1; return b"
      "a = 2; a = X.load(na); b = a + 1; return b";
    check_output "CP joins branches" ~passes:[ D.CP ]
      "if c { a = 1 } else { a = 1 }; return a"
      "if c { a = 1 } else { a = 1 }; return 1";
    check_output "CP folds freeze of defined values" ~passes:[ D.CP ]
      "a = freeze(4); return a"
      "a = 4; return 4";
    check_output "CP + SLF: propagation feeds forwarding (to fixpoint)"
      ~passes:[ D.CP; D.SLF ]
      "a = 2; X.store(na, a); b = X.load(na); return b"
      "a = 2; X.store(na, 2); b = 2; return 2";
    check_output "DAE removes dead assignments" ~passes:[ D.DAE ]
      "a = 1; a = 2; return a"
      "skip; a = 2; return a";
    check_output "DAE keeps faulting assignments" ~passes:[ D.DAE ]
      "a = 1 / b; return 0"
      "a = 1 / b; return 0";
    check_output "DAE removes dead na loads (Ex 2.8)" ~passes:[ D.DAE ]
      "a = X.load(na); return 0"
      "skip; return 0";
    check_output "DAE keeps dead atomic loads" ~passes:[ D.DAE ]
      "a = Y.load(acq); return 0"
      "a = Y.load(acq); return 0";
    check_output "DAE keeps choose (its label is observable)" ~passes:[ D.DAE ]
      "a = choose(); return 0"
      "a = choose(); return 0";
    check_output "DAE liveness through loops" ~passes:[ D.DAE ]
      "s = 0; i = 0; while i < 2 { s = s + i; i = i + 1 }; return s"
      "s = 0; i = 0; while i < 2 { s = s + i; i = i + 1 }; return s";
    check_output "LLF + DAE: forwarding then sweeping" ~passes:[ D.LLF; D.DAE ]
      "a = X.load(na); b = X.load(na); return b"
      "a = X.load(na); b = a; return b";
    check_valid "CP pattern" ~passes:[ D.CP ]
      "a = 2; X.store(na, a); b = X.load(na); return b";
    check_valid "DAE pattern" ~passes:[ D.DAE ]
      "a = X.load(na); b = 1; return 0";
    check_valid "full extended pipeline on Fig 4" fig4_src;
  ]

(* The one check entry point answers every catalog pair the same with
   and without the static tier, and that answer is the catalog's
   expected (simple, advanced) pair. *)
let test_run_routes_agree () =
  List.iter
    (fun (tr : Litmus.Catalog.transformation) ->
      let src = parse tr.Litmus.Catalog.src
      and tgt = parse tr.Litmus.Catalog.tgt in
      let answer fast_path =
        (Optimizer.Validate.run ~fast_path ~src ~tgt ()).Optimizer.Validate.answer
      in
      let fast = answer true and enumerated = answer false in
      Alcotest.(check bool)
        (tr.Litmus.Catalog.name ^ ": fast path == enumeration")
        true (fast = enumerated);
      let simple, advanced = Optimizer.Validate.notions enumerated in
      let expected v = v = Litmus.Catalog.Sound in
      Alcotest.(check (pair bool bool))
        (tr.Litmus.Catalog.name ^ ": catalog verdicts")
        (expected tr.Litmus.Catalog.simple, expected tr.Litmus.Catalog.advanced)
        (simple, advanced))
    Litmus.Catalog.transformations

let suite =
  suite @ extension_suite
  @ [
      Alcotest.test_case "Validate.run: fast path == enumeration on the catalog"
        `Quick test_run_routes_agree;
    ]
