(* Tests for the seqfuzz subsystem: printer/parser round-trip through
   Fingerprint, the Gen weight-knob compatibility contract (golden
   seeds), mutation well-formedness, shrinker invariants, the planted
   variants' ground truth, and the campaign's jobs-determinism and
   planted-refutation contracts. *)

open Lang

(* ------------------------------------------------------------------ *)
(* QCheck plumbing (same idiom as test_properties). *)

let stmt_gen (cfg : Gen.config) ~size : Stmt.t QCheck.Gen.t =
 fun rand -> Gen.gen_program cfg rand ~size

let stmt_arbitrary cfg ~size =
  QCheck.make ~print:(fun s -> Stmt.to_string s) (stmt_gen cfg ~size)

let rich_cfg =
  {
    Gen.default_config with
    Gen.allow_loops = true;
    allow_rmw = true;
    at_locs = Gen.default_config.Gen.at_locs @ [ Loc.make "Z" ];
  }

(* ------------------------------------------------------------------ *)
(* 1. Printer/parser round-trip: on normalized programs, parse∘print is
   the identity up to Fingerprint (the parser produces normalized
   trees, and Stmt.normalize is idempotent). *)

let roundtrip_fingerprint =
  QCheck.Test.make ~name:"parse (print p) re-fingerprints identically"
    ~count:200
    (stmt_arbitrary rich_cfg ~size:8)
    (fun p ->
      let q = Stmt.normalize p in
      let q' = Parser.stmt_of_string (Stmt.to_string q) in
      Fingerprint.stmt q = Fingerprint.stmt q')

(* The two printer gaps this property caught: negative constants used to
   print as application-position [- 1] (unparseable), and [Seq] used to
   rely on associativity the parser does not reproduce. *)
let test_roundtrip_negative_const () =
  let p =
    Stmt.seq
      (Stmt.Assign (Reg.make "a", Expr.int (-1)))
      (Stmt.seq
         (Stmt.Store
            (Mode.Wna, Loc.make "X",
             Expr.Binop (Expr.Add, Expr.int (-2), Expr.reg (Reg.make "a"))))
         (Stmt.Return (Expr.Unop (Expr.Neg, Expr.reg (Reg.make "a")))))
  in
  let q = Stmt.normalize p in
  let q' = Parser.stmt_of_string (Stmt.to_string q) in
  Alcotest.(check string)
    "fingerprint round-trips" (Fingerprint.stmt q) (Fingerprint.stmt q')

let test_normalize_idempotent_on_parse () =
  let src = "a = X.load(na); Y.store(rel, 1); if a { b = -3 }; return a + b" in
  let p = Parser.stmt_of_string src in
  Alcotest.(check bool)
    "parser output is normalized" true (Stmt.normalize p = p)

(* ------------------------------------------------------------------ *)
(* 2. Weight-knob compatibility: with every knob at its default the
   generator consumes the RNG stream exactly as it always did.  These
   fingerprints were pinned before the knobs existed; a change here
   means old seeds no longer reproduce old corpora. *)

let golden_seeds =
  (* (generator, seed, size, md5 of Fingerprint.stmt) *)
  [
    ("gen_program", 1, 4, "daddd0a2e03daea8755d9ef3e3761dac");
    ("gen_linear", 1, 4, "95f715ad0f271a272575e32645ce69bf");
    ("gen_loops", 1, 4, "ba044bd5a50e04a55247e97da40eecb2");
    ("gen_program", 7, 6, "f39e1bbf40273f0e3cf7ea96c2858b80");
    ("gen_linear", 7, 6, "f9b6ae71324292a7d9002415c041827d");
    ("gen_loops", 7, 6, "573d4b4b4251df28012cbd496b96a278");
    ("gen_program", 42, 8, "37aa443d475fab47dfdf7042840b2d1a");
    ("gen_linear", 42, 8, "64e1a795d6684138102eb6e137b8b501");
    ("gen_loops", 42, 8, "156fa8c3b591f3edea6aed72053d5294");
    ("gen_program", 123, 10, "0ff31370bc0c6fadc5c9865f107173bd");
    ("gen_linear", 123, 10, "da6119263998988b6ebef651513cdc46");
    ("gen_loops", 123, 10, "ec2e0a3bd31eb975b475922889678ecf");
    ("gen_program", 2024, 12, "63a494d4cc31524e475e6c084babb9bc");
    ("gen_linear", 2024, 12, "8438bbe44bb164e1562c64826860d666");
    ("gen_loops", 2024, 12, "fe26bce686a25d3ad8f53525a6d59b0d");
  ]

let loops_cfg =
  { Gen.default_config with Gen.allow_loops = true; allow_rmw = true }

let test_golden_seeds () =
  List.iter
    (fun (gen, seed, size, expected) ->
      let st = Random.State.make [| seed; size |] in
      let p =
        match gen with
        | "gen_program" -> Gen.gen_program Gen.default_config st ~size
        | "gen_linear" -> Gen.gen_linear Gen.default_config st ~size
        | "gen_loops" -> Gen.gen_program loops_cfg st ~size
        | _ -> assert false
      in
      Alcotest.(check string)
        (Printf.sprintf "%s seed=%d size=%d" gen seed size)
        expected (Fingerprint.stmt p))
    golden_seeds

(* Dropping a weight to 0 removes the instruction family entirely. *)
let rec count_na_stores = function
  | Stmt.Store (Mode.Wna, _, _) -> 1
  | Stmt.Seq (a, b) | Stmt.If (_, a, b) -> count_na_stores a + count_na_stores b
  | Stmt.While (_, a) -> count_na_stores a
  | _ -> 0

let no_store_weight =
  QCheck.Test.make ~name:"w_na_store = 0 generates no non-atomic stores"
    ~count:100
    (stmt_arbitrary { Gen.default_config with Gen.w_na_store = 0 } ~size:8)
    (fun p -> count_na_stores p = 0)

(* ------------------------------------------------------------------ *)
(* 3. Well-formedness: generation and mutation keep the non-atomic and
   atomic pools disjoint and never invent locations. *)

let subset l1 l2 = List.for_all (fun x -> List.exists (Loc.equal x) l2) l1

let pools_ok (cfg : Gen.config) p =
  let d = Domain.of_stmts [ p ] in
  Analysis.Modes.per_thread_conflicts [ p ] = []
  && subset d.Domain.na_locs cfg.Gen.na_locs
  && subset d.Domain.at_locs cfg.Gen.at_locs

let weighted_cfg =
  {
    rich_cfg with
    Gen.w_na_load = 4;
    w_na_store = 2;
    w_mode_strong = 3;
    size_jitter = 2;
  }

let gen_well_formed =
  QCheck.Test.make ~name:"weighted generation keeps pools disjoint"
    ~count:200
    (stmt_arbitrary weighted_cfg ~size:8)
    (fun p -> pools_ok weighted_cfg p)

let mutant_gen (cfg : Gen.config) ~size ~rounds : Stmt.t QCheck.Gen.t =
 fun rand ->
  let p = ref (Gen.gen_program cfg rand ~size) in
  for _ = 1 to rounds do
    p := Fuzz.Mutate.mutate cfg rand !p
  done;
  !p

let mutate_well_formed =
  QCheck.Test.make ~name:"mutation chains keep pools disjoint" ~count:200
    (QCheck.make
       ~print:(fun s -> Stmt.to_string s)
       (mutant_gen weighted_cfg ~size:6 ~rounds:4))
    (fun p -> pools_ok weighted_cfg p)

let mutate_normalized =
  QCheck.Test.make ~name:"mutants are normalized" ~count:200
    (QCheck.make
       ~print:(fun s -> Stmt.to_string s)
       (mutant_gen rich_cfg ~size:6 ~rounds:2))
    (fun p -> Stmt.normalize p = p)

(* ------------------------------------------------------------------ *)
(* 4. Shrinker invariants: the result still satisfies the predicate, is
   never larger (strictly smaller when any step was accepted), and the
   whole process is deterministic. *)

let lex_le (a1, b1) (a2, b2) = a1 < a2 || (a1 = a2 && b1 <= b2)

let shrink_invariants =
  (* a cheap structural predicate keeps this property fast while still
     exercising every candidate class *)
  let rec has_acq = function
    | Stmt.Load (_, Mode.Racq, _) -> true
    | Stmt.Seq (a, b) | Stmt.If (_, a, b) -> has_acq a || has_acq b
    | Stmt.While (_, a) -> has_acq a
    | _ -> false
  in
  QCheck.Test.make ~name:"shrink: still-fails, never-larger, deterministic"
    ~count:150
    (stmt_arbitrary { rich_cfg with Gen.w_mode_strong = 2 } ~size:8)
    (fun p ->
      let p = Stmt.normalize p in
      QCheck.assume (has_acq p);
      let q, steps = Fuzz.Shrink.shrink ~check:has_acq p in
      let q', steps' = Fuzz.Shrink.shrink ~check:has_acq p in
      has_acq q
      && lex_le (Fuzz.Shrink.measure q) (Fuzz.Shrink.measure p)
      && (steps = 0 || Fuzz.Shrink.measure q < Fuzz.Shrink.measure p)
      && (q, steps) = (q', steps'))

let test_shrink_reaches_minimum () =
  (* an acquire load buried under junk shrinks to just that load *)
  let p =
    Parser.stmt_of_string
      "a = 1; X.store(na, 2); b = Y.load(acq); c = a + b; return c"
  in
  let rec has_acq = function
    | Stmt.Load (_, Mode.Racq, _) -> true
    | Stmt.Seq (a, b) | Stmt.If (_, a, b) -> has_acq a || has_acq b
    | Stmt.While (_, a) -> has_acq a
    | _ -> false
  in
  let q, _ = Fuzz.Shrink.shrink ~check:has_acq (Stmt.normalize p) in
  Alcotest.(check int) "shrinks to the single acquire" 1 (Stmt.size q)

(* ------------------------------------------------------------------ *)
(* 5. Planted ground truth: each variant transforms its needle and the
   output does not refine the input; the shapes the real passes handle
   correctly stay sound even under the buggy variants. *)

let refuted v src =
  let p = Stmt.normalize (Parser.stmt_of_string src) in
  let tgt = Fuzz.Planted.apply v p in
  Alcotest.(check bool)
    (Fuzz.Planted.name v ^ " transforms its needle") true (tgt <> p);
  Alcotest.(check bool)
    (Fuzz.Planted.name v ^ " is refuted on its needle") false
    (Fuzz.Oracle.refines
       ~budget:(Engine.Budget.make ~max_states:50_000 ())
       ~src:p ~tgt)

let sound_on v src =
  let p = Stmt.normalize (Parser.stmt_of_string src) in
  let tgt = Fuzz.Planted.apply v p in
  if tgt <> p then
    Alcotest.(check bool)
      (Fuzz.Planted.name v ^ " stays sound on the safe shape") true
      (Fuzz.Oracle.refines
         ~budget:(Engine.Budget.make ~max_states:50_000 ())
         ~src:p ~tgt)

let test_planted_dse () =
  (* store–release–acquire–store: eliminating the first store lets the
     environment observe the missing write (Ex 3.5 boundary) *)
  refuted Fuzz.Planted.Dse_rel
    "X.store(na, 1); Y.store(rel, 0); a = Z.load(acq); X.store(na, 2); \
     return a";
  (* across a release write alone the elimination is still sound in the
     advanced notion (Ex 3.5) — the buggy pass must NOT be refuted here *)
  sound_on Fuzz.Planted.Dse_rel
    "X.store(na, 1); Y.store(rel, 0); X.store(na, 2); return 0"

let test_planted_llf () =
  refuted Fuzz.Planted.Llf_acq
    "a = X.load(na); b = Y.load(acq); c = X.load(na); return c";
  (* forwarding with nothing between the loads is ordinary sound SLF *)
  sound_on Fuzz.Planted.Llf_acq "a = X.load(na); c = X.load(na); return c"

let test_planted_licm () =
  refuted Fuzz.Planted.Licm_acq
    "i = 0; while i < 2 { a = X.load(na); b = Y.load(acq); i = i + 1 }; \
     return a";
  (* hoisting out of an acquire-free loop is sound LICM *)
  sound_on Fuzz.Planted.Licm_acq
    "i = 0; while i < 2 { a = X.load(na); i = i + 1 }; return a"

let test_planted_cse () =
  (* acquire–acquire: the second load is an environment-choice event and
     never a common subexpression *)
  refuted Fuzz.Planted.Cse_acq
    "a = Y.load(acq); b = Y.load(acq); return b";
  (* pure-expression CSE territory: the variant leaves na loads alone *)
  sound_on Fuzz.Planted.Cse_acq
    "a = X.load(na); b = X.load(na); return b"

let test_planted_rle () =
  (* store–release–acquire–load (Ex 2.12): the environment may take X at
     the release, change it, and hand it back at the acquire *)
  refuted Fuzz.Planted.Rle_rel
    "X.store(na, 1); Y.store(rel, 1); a = Y.load(acq); b = X.load(na); \
     return b";
  (* across a lone acquire the forwarding is sound (slf-across-acq-read):
     without a release the environment never gains X *)
  sound_on Fuzz.Planted.Rle_rel
    "X.store(na, 1); a = Y.load(acq); b = X.load(na); return b"

(* ------------------------------------------------------------------ *)
(* 6. The real passes are never flagged: pass-correct returns no finding
   on random programs (each pass's output refines its input). *)

let passes_never_flagged =
  QCheck.Test.make ~name:"real passes are never flagged" ~count:60
    (stmt_arbitrary rich_cfg ~size:6)
    (fun p ->
      Fuzz.Oracle.check Fuzz.Oracle.Pass_correct
        ~budget:(Engine.Budget.make ~max_states:50_000 ())
        (Stmt.normalize p)
      = None)

(* ------------------------------------------------------------------ *)
(* 7. Campaign contracts. *)

let small_budget = Engine.Budget.spec ~max_states:5_000 ()

let test_campaign_jobs_deterministic () =
  let run jobs =
    Fuzz.Campaign.run ~jobs ~budget:small_budget ~seed:5 ~max_execs:24 ()
  in
  let r1 = run 1 and r3 = run 3 in
  Alcotest.(check string)
    "render is byte-identical across jobs"
    (Fuzz.Campaign.render r1) (Fuzz.Campaign.render r3);
  Alcotest.(check int) "unknown counts agree" r1.Fuzz.Campaign.unknowns
    r3.Fuzz.Campaign.unknowns

let test_campaign_refutes_planted () =
  (* the CI smoke configuration, in miniature: all planted variants must
     be refuted and shrink small; the real oracles must stay quiet *)
  let r =
    Fuzz.Campaign.run ~jobs:2
      ~budget:(Engine.Budget.spec ~max_states:20_000 ())
      ~oracles:[ Fuzz.Oracle.Pass_correct ] ~seed:2 ~max_execs:150 ()
  in
  Alcotest.(check int) "no real findings" 0
    (List.length r.Fuzz.Campaign.findings);
  List.iter
    (fun (nm, hit) ->
      match hit with
      | None -> Alcotest.failf "planted variant %s survived" nm
      | Some fi ->
        (match fi.Fuzz.Campaign.shrunk with
         | None -> Alcotest.failf "%s not shrunk" nm
         | Some s ->
           if Stmt.size s > 8 then
             Alcotest.failf "%s reproducer has %d statements (> 8)" nm
               (Stmt.size s);
           (* the reproducer is still a counterexample *)
           let tgt =
             Fuzz.Planted.apply (Option.get (Fuzz.Planted.of_string nm)) s
           in
           Alcotest.(check bool)
             (nm ^ " reproducer still refutes") false
             (tgt = s
              || Fuzz.Oracle.refines
                   ~budget:(Engine.Budget.make ~max_states:50_000 ())
                   ~src:s ~tgt)))
    r.Fuzz.Campaign.planted

(* ------------------------------------------------------------------ *)
(* 8. Coverage-guided subsystem: signal determinism, corpus/persist
   round-trips (with cache-style corrupt-entry rejection), guided
   campaigns keeping the byte-identity contract. *)

let coverage_signals_deterministic =
  QCheck.Test.make
    ~name:"coverage signals are deterministic, sorted, deduplicated"
    ~count:40
    (stmt_arbitrary rich_cfg ~size:6)
    (fun p ->
      let p = Stmt.normalize p in
      let s1 = Fuzz.Coverage.signals p in
      let s2 = Fuzz.Coverage.signals p in
      s1 = s2 && s1 = List.sort_uniq String.compare s1 && s1 <> [])

let fresh_tmp_dir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  base

(* The lexicographically first entry file of a store (deterministic). *)
let first_entry_file dir =
  let shards =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           f <> "VERSION" && Sys.is_directory (Filename.concat dir f))
    |> List.sort String.compare
  in
  let sdir = Filename.concat dir (List.hd shards) in
  let files = Sys.readdir sdir |> Array.to_list |> List.sort String.compare in
  Filename.concat sdir (List.hd files)

let test_persist_roundtrip () =
  let dir = fresh_tmp_dir "seqfuzz-corpus" in
  let progs =
    List.map Lang.Parser.stmt_of_string
      [
        "X.store(na, 1); Y.store(rel, 1); return 0";
        "a = Y.load(acq); b = X.load(na); return b";
        "a = Z.load(rlx); return a";
      ]
  in
  let c = Fuzz.Corpus.create () in
  List.iter (fun p -> ignore (Fuzz.Corpus.add ~shrink_admit:false c p)) progs;
  let members =
    List.map (fun e -> e.Fuzz.Corpus.program) (Fuzz.Corpus.entries c)
  in
  Alcotest.(check int) "all three programs are coverage-novel" 3
    (List.length members);
  let seen = [ "00deadbeef"; "11cafe" ] in
  let n =
    Fuzz.Persist.save ~dir ~corpus:members
      ~findings:[ List.hd members ] ~seen
  in
  Alcotest.(check int) "entries written" 6 n;
  let st = Fuzz.Persist.load ~dir in
  let fps ps = List.sort String.compare (List.map Lang.Fingerprint.stmt ps) in
  Alcotest.(check int) "nothing skipped" 0 st.Fuzz.Persist.skipped;
  Alcotest.(check (list string))
    "corpus round-trips" (fps members)
    (fps st.Fuzz.Persist.corpus);
  Alcotest.(check int) "finding round-trips" 1
    (List.length st.Fuzz.Persist.findings);
  Alcotest.(check (list string))
    "seen fingerprints round-trip"
    (List.sort String.compare seen)
    (List.sort String.compare st.Fuzz.Persist.seen);
  (* minimize: re-admission in order keeps every coverage point *)
  let c2 = Fuzz.Corpus.create () in
  List.iter
    (fun p -> ignore (Fuzz.Corpus.add ~shrink_admit:false c2 p))
    st.Fuzz.Persist.corpus;
  let m = Fuzz.Corpus.minimize c2 in
  Alcotest.(check bool) "minimized pool is no larger" true
    (Fuzz.Corpus.size m <= Fuzz.Corpus.size c2);
  Alcotest.(check int) "minimized pool keeps the coverage points"
    (Fuzz.Coverage.points (Fuzz.Corpus.coverage c2))
    (Fuzz.Coverage.points (Fuzz.Corpus.coverage m));
  (* corrupt-entry rejection, mirroring the cache tests: a truncated
     entry is skipped by load (never an error) and pruned by fsck *)
  let victim = first_entry_file dir in
  Out_channel.with_open_bin victim (fun oc ->
      Out_channel.output_string oc "SEQ");
  let st2 = Fuzz.Persist.load ~dir in
  Alcotest.(check int) "corrupt entry skipped" 1 st2.Fuzz.Persist.skipped;
  let rep = Service.Cache.fsck ~dir in
  Alcotest.(check int) "fsck prunes the corrupt entry" 1
    rep.Service.Cache.pruned;
  Alcotest.(check bool) "fsck keeps the rest" true
    (rep.Service.Cache.valid = 5);
  let st3 = Fuzz.Persist.load ~dir in
  Alcotest.(check int) "clean after fsck" 0 st3.Fuzz.Persist.skipped

let guided_campaign_jobs_deterministic =
  QCheck.Test.make
    ~name:"guided campaigns are byte-identical at jobs 1 vs jobs 4" ~count:3
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let run jobs =
        Fuzz.Campaign.run ~jobs ~budget:small_budget ~guided:true ~seed
          ~max_execs:16 ()
      in
      Fuzz.Campaign.render (run 1) = Fuzz.Campaign.render (run 4))

let test_campaign_resume_warm () =
  let dir = fresh_tmp_dir "seqfuzz-resume" in
  let run resume =
    Fuzz.Campaign.run ~jobs:2 ~budget:small_budget
      ~oracles:[ Fuzz.Oracle.Pass_correct ] ~guided:true ~corpus_dir:dir
      ~resume ~seed:7 ~max_execs:40 ()
  in
  let r1 = run false in
  let c1 = Option.get r1.Fuzz.Campaign.cov in
  Alcotest.(check bool) "first run persists" true
    (c1.Fuzz.Campaign.persisted > 0);
  let r2 = run true in
  let c2 = Option.get r2.Fuzz.Campaign.cov in
  Alcotest.(check bool) "second run resumes the pool" true
    (c2.Fuzz.Campaign.resumed > 0);
  Alcotest.(check bool) "second run is warm (fewer fresh execs)" true
    (c2.Fuzz.Campaign.fresh_execs < c1.Fuzz.Campaign.fresh_execs);
  Alcotest.(check bool) "coverage points are monotone across runs" true
    (c2.Fuzz.Campaign.cov_points >= c1.Fuzz.Campaign.cov_points)

(* ------------------------------------------------------------------ *)
(* 9. Oracle work: the packed race walk against its set-based reference,
   and the per-program shared SC exploration's budget charges. *)

(* The campaign's phase configs, loops included. *)
let phase_programs =
  QCheck.make
    ~print:(fun p -> Stmt.to_string p)
    (fun rand ->
      let phases = Fuzz.Campaign.default_phases in
      let ph = List.nth phases (Random.State.int rand (List.length phases)) in
      Stmt.normalize
        (Gen.gen_program ph.Fuzz.Campaign.cfg rand ~size:ph.Fuzz.Campaign.size))

(* Both walks under one state cap (below the reference's 30 000-visit
   fuel, so the cap, not the fuel, stops a long walk): same pairs, same
   states charged, or both exhausted. *)
let racy_walk_run walk p =
  let budget = Engine.Budget.make ~max_states:20_000 () in
  let r =
    match walk ~budget p with
    | pairs -> Some pairs
    | exception Engine.Budget.Exhausted _ -> None
  in
  (r, Engine.Budget.states_used budget)

let packed_racy_walk =
  QCheck.Test.make
    ~name:"packed dynamic_racy == set-based walk (pairs and states)"
    ~count:60 phase_programs
    (fun p ->
      let packed = racy_walk_run Fuzz.Oracle.dynamic_racy p in
      let reference =
        racy_walk_run
          (fun ~budget p -> Test_analysis.dynamic_racy_pairs ~budget p)
          p
      in
      packed = reference)

(* Baseline-hw charges the SC exploration's states whether it runs the
   exploration itself or finds it already forced by baseline-env. *)
let hw_charge_independent =
  QCheck.Test.make
    ~name:"baseline-hw charges the same states with the SC result shared"
    ~count:40 phase_programs
    (fun p ->
      let hw = Fuzz.Oracle.Baseline_hw Fuzz.Oracle.default_hw in
      let run_hw subject =
        let budget = Engine.Budget.make ~max_states:1_000_000 () in
        let r = Fuzz.Oracle.check_subject hw ~budget subject in
        (r, Engine.Budget.states_used budget)
      in
      let alone = run_hw (Fuzz.Oracle.subject p) in
      let shared = Fuzz.Oracle.subject p in
      (match
         Fuzz.Oracle.check_subject Fuzz.Oracle.Baseline_env
           ~budget:(Engine.Budget.make ~max_states:1_000_000 ())
           shared
       with
       | _ -> ()
       | exception Engine.Budget.Exhausted _ -> ());
      alone = run_hw shared)

(* Baseline-env checks and charges its budget for the shared SC
   exploration like baseline-hw: an unbounded counter explores to the
   20 000-state cap, so a 100-state budget is exhausted, not skipped as
   truncated. *)
let test_baseline_env_charges_sc () =
  let p = Parser.stmt_of_string "a = 0; while (a >= 0) { a = (a + 1) }; return a" in
  match
    Fuzz.Oracle.check Fuzz.Oracle.Baseline_env
      ~budget:(Engine.Budget.make ~max_states:100 ())
      p
  with
  | _ -> Alcotest.fail "expected Exhausted States"
  | exception Engine.Budget.Exhausted Engine.Budget.States -> ()

let qsuite = List.map (QCheck_alcotest.to_alcotest ~long:false)

let suite =
  qsuite
    [
      roundtrip_fingerprint;
      no_store_weight;
      gen_well_formed;
      mutate_well_formed;
      mutate_normalized;
      shrink_invariants;
      passes_never_flagged;
      coverage_signals_deterministic;
      guided_campaign_jobs_deterministic;
      packed_racy_walk;
      hw_charge_independent;
    ]
  @ [
      Alcotest.test_case "round-trip: negative constants" `Quick
        test_roundtrip_negative_const;
      Alcotest.test_case "parser output is normalized" `Quick
        test_normalize_idempotent_on_parse;
      Alcotest.test_case "Gen golden seeds (knob compatibility)" `Quick
        test_golden_seeds;
      Alcotest.test_case "shrink reaches the minimal program" `Quick
        test_shrink_reaches_minimum;
      Alcotest.test_case "planted DSE ground truth" `Quick test_planted_dse;
      Alcotest.test_case "planted LLF ground truth" `Quick test_planted_llf;
      Alcotest.test_case "planted LICM ground truth" `Quick test_planted_licm;
      Alcotest.test_case "planted CSE ground truth" `Quick test_planted_cse;
      Alcotest.test_case "planted RLE ground truth" `Quick test_planted_rle;
      Alcotest.test_case "campaign is jobs-deterministic" `Quick
        test_campaign_jobs_deterministic;
      Alcotest.test_case "campaign refutes every planted variant" `Slow
        test_campaign_refutes_planted;
      Alcotest.test_case "persist round-trip (corrupt entries rejected)" `Quick
        test_persist_roundtrip;
      Alcotest.test_case "resumed campaign is warm" `Quick
        test_campaign_resume_warm;
      Alcotest.test_case "baseline-env charges the shared SC exploration"
        `Quick test_baseline_env_charges_sc;
    ]
