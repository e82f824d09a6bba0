(* E5: empirical adequacy (Thm 6.2) — SEQ-validated transformations must
   contextually refine in PS_na on the context library.  The quick suite
   covers a representative slice; the full corpus × context sweep runs in
   the benchmark harness (bench/main.exe, table E5) and in the `Slow
   test. *)

module A = Litmus.Adequacy
module C = Litmus.Catalog

let quick_corpus =
  [
    "slf-basic";
    "reorder-na-rw-diff";
    "na-write-into-acq";
    "na-read-into-rel";
    "slf-across-rel-write";
    "rlx-read-then-na-write";  (* needs the advanced notion: late UB *)
    "na-write-into-rel";  (* needs commitments *)
    "dse-across-rel-write";
    "irrelevant-load-intro";  (* the load-introduction headline *)
  ]

let quick_contexts =
  List.filter
    (fun (n, _) -> List.mem n [ "idle"; "na-writer"; "rel-acq-flagger"; "acq-guarded-writer" ])
    C.contexts

let check_row (r : A.row) =
  if not (A.row_ok r) then
    let bad =
      List.filter_map
        (fun (n, ok, _) -> if ok then None else Some n)
        r.A.contexts
    in
    Alcotest.failf "adequacy violated on %s in context(s) %s" r.A.tr.C.name
      (String.concat ", " bad)

(* The rows of a sweep; a task that did not finish fails the test. *)
let rows_of outcomes =
  List.map
    (fun ((tr : C.transformation), (o : A.row Engine.Sweep.outcome)) ->
      match o.result with
      | Ok r -> r
      | Error reason ->
        Alcotest.failf "%s: UNKNOWN(%s)" tr.C.name
          (Engine.Verdict.reason_to_string reason))
    outcomes

(* Engine-swept slice: A.run must agree row-by-row with the catalog's
   expected SEQ verdicts, hold the adequacy implication, and return the
   same rows (including states/pairs/memo-hit stats) for every [jobs]
   setting — each row computes with row-local state, so nothing but
   wall-clock may vary. *)
let sweep_corpus =
  List.filter_map C.find_transformation
    [
      "slf-basic";
      "reorder-na-rw-same";  (* SEQ-unsound: adequacy holds vacuously *)
      "na-write-into-rel";
      "rlx-read-then-na-write";
      "dse-across-rel-write";
      "irrelevant-load-intro";
    ]

let test_swept_slice () =
  let rows =
    rows_of (A.run ~jobs:2 ~contexts:quick_contexts ~corpus:sweep_corpus ())
  in
  Alcotest.(check int) "one row per transformation"
    (List.length sweep_corpus) (List.length rows);
  List.iter
    (fun (r : A.row) ->
      check_row r;
      Alcotest.(check bool)
        (r.A.tr.C.name ^ ": simple SEQ verdict matches catalog")
        (r.A.tr.C.simple = C.Sound) r.A.seq_simple;
      Alcotest.(check bool)
        (r.A.tr.C.name ^ ": advanced SEQ verdict matches catalog")
        (r.A.tr.C.advanced = C.Sound) r.A.seq_advanced;
      Alcotest.(check int) (r.A.tr.C.name ^ ": all contexts checked")
        (List.length quick_contexts)
        (List.length r.A.contexts))
    rows

let test_jobs_invariance () =
  let corpus = List.filteri (fun i _ -> i < 3) sweep_corpus in
  let sweep jobs =
    rows_of (A.run ~jobs ~contexts:quick_contexts ~corpus ())
  in
  (* rows carry no timing, so full structural equality is the contract *)
  if sweep 1 <> sweep 3 then
    Alcotest.fail "adequacy rows differ between jobs:1 and jobs:3"

let suite =
  List.filter_map
    (fun name ->
      Option.map
        (fun tr ->
          Alcotest.test_case ("adequacy: " ^ name) `Quick (fun () ->
              check_row (A.check_transformation ~contexts:quick_contexts tr)))
        (C.find_transformation name))
    quick_corpus
  @ [
      Alcotest.test_case "adequacy: engine-swept slice" `Quick
        test_swept_slice;
      Alcotest.test_case "adequacy: rows invariant under jobs" `Quick
        test_jobs_invariance;
      (* the full corpus × context matrix takes minutes; run it via
         PSEQ_FULL=1 dune runtest, or through `bench/main.exe --full` *)
      Alcotest.test_case "adequacy: full corpus sweep" `Slow (fun () ->
          if Sys.getenv_opt "PSEQ_FULL" = None then
            Alcotest.skip ()
          else List.iter check_row (rows_of (A.run ())));
    ]
