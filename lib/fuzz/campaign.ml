(** The fuzzing campaign: deterministically seeded generate/mutate corpus,
    fingerprint dedup, budgeted parallel oracle sweep, planted-variant
    refutation, and sequential shrinking.

    Determinism contract (tested): every field of the report except
    [wall_ms]/[execs_per_s] is a pure function of (seed, max_execs,
    phases, oracles, planted, shrink, budget spec, coverage flags,
    store contents) — never of [jobs] or scheduling.  Program [i] of
    the corpus is derived from its own RNG stream
    [Random.State.make [| seed; i |]]; the corpus, dedup, coverage and
    shrink phases are sequential; the oracle sweep runs under
    {!Engine.Sweep.run_verdict}'s parallel=sequential contract.  (A
    wall-clock budget — [timeout_ms] — makes individual outcomes
    machine-dependent; jobs-independence is only claimed for state/fuel
    budgets, which is what the CLI smoke tests use.)

    Coverage-guided mode ([guided], implying [coverage]) keeps the same
    generation skeleton — same per-index streams, same phase rotation,
    same fresh/mutant parity — and changes exactly one decision: the
    mutation parent at odd indices comes from an energy-weighted
    {!Schedule.pick} over the {!Corpus} pool instead of position
    [i / 2].  [coverage] alone only accounts (signals, pool admission,
    novelty counters) without steering, so its corpus is the blind one —
    the comparable baseline the E16 bench rows use.

    With a [corpus_dir], the pool, the counterexample reproducers, and
    every swept fingerprint are persisted through {!Persist} at the end
    of the run; [resume] loads them back first.  Resumed pool members
    and reproducers are re-swept (they are the regression corpus —
    indices [0..resumed-1]); any regenerated program whose fingerprint
    the store has already swept is skipped without running an oracle,
    which is what makes the second campaign warm. *)

open Lang

type phase = { phase_name : string; cfg : Gen.config; size : int }

(* The rotation of generator configs, each aimed at one family of
   barrier-sensitive shapes: "store-heavy" concentrates non-atomic
   stores on a single location with acquire/release traffic between
   them, plus enough non-atomic loads to read a published value back
   behind the matching acquire (the planted-DSE and planted-RLE
   needles, store–release–acquire–store and store–release–acquire–load);
   "load-heavy" does the same for repeated loads (the planted-LLF and
   planted-CSE needles, load–acquire–load and acquire–acquire); "loops" drops non-atomic stores
   entirely so loop bodies keep an invariant load next to an acquire
   (the planted-LICM needle). *)
let default_phases =
  let z = Loc.make "Z" in
  let x = Loc.make "X" in
  [
    { phase_name = "default"; cfg = Gen.default_config; size = 7 };
    {
      phase_name = "store-heavy";
      cfg =
        {
          Gen.default_config with
          Gen.na_locs = [ x ];
          at_locs = Gen.default_config.Gen.at_locs @ [ z ];
          w_na_store = 2;
          w_na_load = 3;
          w_mode_strong = 4;
          size_jitter = 2;
        };
      size = 11;
    };
    {
      phase_name = "load-heavy";
      cfg =
        {
          Gen.default_config with
          Gen.na_locs = [ x ];
          at_locs = Gen.default_config.Gen.at_locs @ [ z ];
          w_na_load = 4;
          w_mode_strong = 3;
        };
      size = 8;
    };
    {
      phase_name = "loops";
      cfg =
        {
          Gen.default_config with
          Gen.allow_loops = true;
          at_locs = Gen.default_config.Gen.at_locs @ [ z ];
          w_na_load = 3;
          w_na_store = 0;
          w_mode_strong = 3;
        };
      size = 9;
    };
  ]

type finding = {
  index : int;  (** corpus index of the failing program *)
  oracle : string;  (** oracle name, or ["planted:<variant>"] *)
  fingerprint : string;  (** of the original failing program *)
  detail : string;
  program : Stmt.t;  (** the original failing program (normalized) *)
  shrunk : Stmt.t option;  (** minimized reproducer, when shrinking ran *)
  shrink_steps : int;
}

type coverage_stats = {
  cov_points : int;  (** distinct coverage signals after the run *)
  cov_admitted : int;  (** generated programs admitted to the pool *)
  corpus_size : int;  (** pool size after the run (incl. resumed) *)
  resumed : int;  (** programs replayed from the store *)
  fresh_execs : int;  (** swept programs no earlier run had seen *)
  persisted : int;  (** store entries written (0 without a store) *)
}

type report = {
  seed : int;
  requested_execs : int;
  unique_execs : int;  (** after fingerprint dedup *)
  dedup_dropped : int;
  findings : finding list;  (** real-oracle findings, in corpus order *)
  planted : (string * finding option) list;
      (** per planted variant: the first refutation, or [None] if the
          variant survived the campaign (a harness failure) *)
  unknowns : int;  (** individual checks whose budget ran out *)
  quarantined : int;
  shrink_steps_total : int;
  cov : coverage_stats option;  (** [None] on blind campaigns *)
  wall_ms : float;  (** the only timing field; everything else is
                        jobs-independent *)
}

let execs_per_s (r : report) : float =
  if r.wall_ms <= 0. then 0.
  else float_of_int r.unique_execs /. (r.wall_ms /. 1000.)

(* ------------------------------------------------------------------ *)

let build_corpus ~seed ~max_execs ~(phases : phase list) : Stmt.t array =
  let nph = List.length phases in
  let progs = Array.make (max 1 max_execs) Stmt.Skip in
  for i = 0 to max_execs - 1 do
    let st = Random.State.make [| seed; i |] in
    (* [(i / 2) mod nph], not [i mod nph]: the fresh/mutant split below
       is parity-based, so a parity-based rotation would starve every
       odd-positioned phase of fresh programs. *)
    let ph = List.nth phases (i / 2 mod nph) in
    let p =
      (* even indices: fresh programs; odd indices (after the first wave
         of every phase): mutants of an earlier corpus entry *)
      if i < 2 * nph || i mod 2 = 0 then
        Gen.gen_program ph.cfg st ~size:ph.size
      else Mutate.mutate ph.cfg st progs.(i / 2)
    in
    progs.(i) <- Stmt.normalize p
  done;
  progs

type task_result = {
  t_real : (Oracle.kind * string) list;  (** oracle findings *)
  t_planted : Planted.variant list;  (** variants this program refutes *)
  t_unknowns : int;  (** per-program checks whose budget ran out *)
}

let run ?pool ?(jobs = 1) ?(budget = Engine.Budget.spec_unlimited)
    ?(oracles = Oracle.all) ?(planted = Planted.all) ?(shrink = true)
    ?(phases = default_phases) ?(coverage = false) ?(guided = false)
    ?corpus_dir ?(resume = false) ~seed ~max_execs () : report =
  if phases = [] then invalid_arg "Campaign.run: empty phase list";
  let coverage = coverage || guided || corpus_dir <> None in
  let t0 = Engine.Clock.now () in
  (* the pool and the fingerprint sets driving coverage accounting *)
  let pool_c = if coverage then Some (Corpus.create ()) else None in
  let prior_seen = Hashtbl.create 16 in
  let swept_seen = Hashtbl.create 64 in
  (* warm resume: replay the persisted pool + reproducers as tasks
     [0..resumed-1] and pre-mark every fingerprint the store has swept *)
  let resumed_tasks =
    match (corpus_dir, pool_c) with
    | Some dir, Some c when resume ->
      let store = Persist.load ~dir in
      List.iter
        (fun fp -> Hashtbl.replace prior_seen fp ())
        store.Persist.seen;
      let replay = store.Persist.corpus @ store.Persist.findings in
      List.iter (fun p -> ignore (Corpus.add ~shrink_admit:false c p)) replay;
      let dedup = Hashtbl.create 64 in
      List.filter_map
        (fun p ->
          let fp = Fingerprint.stmt p in
          if Hashtbl.mem dedup fp then None
          else begin
            Hashtbl.add dedup fp ();
            Hashtbl.replace prior_seen fp ();
            Some (fp, p)
          end)
        replay
    | _ -> []
  in
  let n_resumed = List.length resumed_tasks in
  let resumed_tasks = List.mapi (fun i (fp, p) -> (i, fp, p)) resumed_tasks in
  let admitted = ref 0 and fresh = ref 0 in
  let tasks =
    match pool_c with
    | None ->
      let progs = build_corpus ~seed ~max_execs ~phases in
      (* fingerprint dedup, in corpus order *)
      let seen = Hashtbl.create 64 in
      let tasks = ref [] in
      Array.iteri
        (fun i p ->
          if i < max_execs then begin
            let fp = Fingerprint.stmt p in
            if not (Hashtbl.mem seen fp) then begin
              Hashtbl.add seen fp ();
              tasks := (i, fp, p) :: !tasks
            end
          end)
        progs;
      List.rev !tasks
    | Some c ->
      (* Same generation skeleton as [build_corpus], fused with the
         coverage accounting so admission order equals corpus order.
         In guided mode the mutation parent comes from the pool. *)
      let nph = List.length phases in
      let progs = Array.make (max 1 max_execs) Stmt.Skip in
      List.iter
        (fun (_, fp, _) -> Hashtbl.replace swept_seen fp ())
        resumed_tasks;
      let gen = ref [] in
      for i = 0 to max_execs - 1 do
        let st = Random.State.make [| seed; i |] in
        let ph = List.nth phases (i / 2 mod nph) in
        let p =
          if i < 2 * nph || i mod 2 = 0 then
            Gen.gen_program ph.cfg st ~size:ph.size
          else begin
            let parent =
              match if guided then Schedule.pick c st else None with
              | Some e -> e.Corpus.program
              | None -> progs.(i / 2)
            in
            Mutate.mutate ph.cfg st parent
          end
        in
        let p = Stmt.normalize p in
        progs.(i) <- p;
        let fp = Fingerprint.stmt p in
        if not (Hashtbl.mem swept_seen fp) then begin
          Hashtbl.replace swept_seen fp ();
          (match Corpus.add ~shrink_admit:shrink c p with
           | Corpus.Admitted _ -> incr admitted
           | Corpus.Known | Corpus.Subsumed -> ());
          (* a fingerprint an earlier campaign already swept costs no
             oracle run — the store remembers its verdict was clean *)
          if not (Hashtbl.mem prior_seen fp) then begin
            incr fresh;
            gen := (n_resumed + i, fp, p) :: !gen
          end
        end
      done;
      resumed_tasks @ List.rev !gen
  in
  let unique_execs = List.length tasks in
  (* Each oracle and each planted check runs under its OWN budget
     started from the spec, with exhaustion trapped per check: one
     expensive oracle must not starve the planted checks on exactly the
     acquire-rich programs the planted needles live in.  (The sweep-level
     budget passed in by [run_verdict] is deliberately unused.)  The
     oracles share one {!Oracle.subject}, built here inside the task, so
     the SC exploration runs once per program. *)
  let f ~budget:_ (_i, _fp, p) =
    let subject = Oracle.subject p in
    let unk = ref 0 in
    let chk ~none th =
      match Engine.Verdict.capture th with
      | Ok x -> x
      | Error _ -> incr unk; none
    in
    let t_real =
      List.filter_map
        (fun k ->
          chk ~none:None (fun () ->
              Option.map
                (fun d -> (k, d))
                (Oracle.check_subject k ~budget:(Engine.Budget.start budget)
                   subject)))
        oracles
    in
    let t_planted =
      List.filter
        (fun v ->
          chk ~none:false (fun () ->
              let tgt = Planted.apply v p in
              tgt <> p
              && not
                   (Oracle.refines ~budget:(Engine.Budget.start budget) ~src:p
                      ~tgt)))
        planted
    in
    { t_real; t_planted; t_unknowns = !unk }
  in
  let outcomes = Engine.Sweep.run_verdict ?pool ~jobs ~budget ~f tasks in
  (* aggregate in corpus order *)
  let unknowns = ref 0 and quarantined = ref 0 in
  let real = ref [] in
  let planted_hits = Hashtbl.create 8 in
  List.iter2
    (fun (i, fp, p) (o : _ Engine.Sweep.outcome) ->
      if o.Engine.Sweep.quarantined then incr quarantined;
      match o.Engine.Sweep.result with
      | Error _ -> incr unknowns
      | Ok tr ->
        unknowns := !unknowns + tr.t_unknowns;
        List.iter
          (fun (k, detail) ->
            real :=
              {
                index = i;
                oracle = Oracle.name k;
                fingerprint = fp;
                detail;
                program = p;
                shrunk = None;
                shrink_steps = 0;
              }
              :: !real)
          tr.t_real;
        List.iter
          (fun v ->
            if not (Hashtbl.mem planted_hits (Planted.name v)) then
              Hashtbl.add planted_hits (Planted.name v) (i, fp, p))
          tr.t_planted)
    tasks outcomes;
  let findings = List.rev !real in
  (* sequential shrinking; each candidate check runs under a fresh
     budget from the same spec, with failures treated as "does not
     reproduce" (conservative: the reproducer stays larger) *)
  let trap_false f =
    match Engine.Verdict.capture f with Ok b -> b | Error _ -> false
  in
  let shrink_real k p0 =
    Shrink.shrink
      ~check:(fun q ->
        trap_false (fun () ->
            Oracle.check k ~budget:(Engine.Budget.start budget) q <> None))
      p0
  in
  let shrink_planted v p0 =
    Shrink.shrink
      ~check:(fun q ->
        trap_false (fun () ->
            let tgt = Planted.apply v q in
            tgt <> q
            && not
                 (Oracle.refines ~budget:(Engine.Budget.start budget) ~src:q
                    ~tgt)))
      p0
  in
  let shrink_steps_total = ref 0 in
  let findings =
    if not shrink then findings
    else
      List.map
        (fun fi ->
          match Oracle.of_string fi.oracle with
          | None -> fi
          | Some k ->
            let s, steps = shrink_real k fi.program in
            shrink_steps_total := !shrink_steps_total + steps;
            { fi with shrunk = Some s; shrink_steps = steps })
        findings
  in
  let planted_report =
    List.map
      (fun v ->
        let nm = Planted.name v in
        match Hashtbl.find_opt planted_hits nm with
        | None -> (nm, None)
        | Some (i, fp, p) ->
          let shrunk, steps =
            if shrink then
              let s, steps = shrink_planted v p in
              (Some s, steps)
            else (None, 0)
          in
          shrink_steps_total := !shrink_steps_total + steps;
          ( nm,
            Some
              {
                index = i;
                oracle = "planted:" ^ nm;
                fingerprint = fp;
                detail = Planted.describe v;
                program = p;
                shrunk;
                shrink_steps = steps;
              } ))
      planted
  in
  (* persistence, then the coverage ledger *)
  let cov =
    match pool_c with
    | None -> None
    | Some c ->
      let persisted =
        match corpus_dir with
        | None -> 0
        | Some dir ->
          let members =
            List.map (fun e -> e.Corpus.program) (Corpus.entries c)
          in
          let repro fi =
            match fi.shrunk with Some s -> s | None -> fi.program
          in
          let reproducers =
            List.map repro findings
            @ List.filter_map (fun (_, h) -> Option.map repro h) planted_report
          in
          let all_seen = Hashtbl.copy swept_seen in
          Hashtbl.iter (fun fp () -> Hashtbl.replace all_seen fp ()) prior_seen;
          let seen_fps =
            List.sort String.compare
              (Hashtbl.fold (fun fp () acc -> fp :: acc) all_seen [])
          in
          Persist.save ~dir ~corpus:members ~findings:reproducers
            ~seen:seen_fps
      in
      Some
        {
          cov_points = Coverage.points (Corpus.coverage c);
          cov_admitted = !admitted;
          corpus_size = Corpus.size c;
          resumed = n_resumed;
          fresh_execs = !fresh;
          persisted;
        }
  in
  {
    seed;
    requested_execs = max_execs;
    unique_execs;
    dedup_dropped =
      (match cov with
       | None -> max_execs - unique_execs
       | Some cs -> max_execs - cs.fresh_execs);
    findings;
    planted = planted_report;
    unknowns = !unknowns;
    quarantined = !quarantined;
    shrink_steps_total = !shrink_steps_total;
    cov;
    wall_ms = (Engine.Clock.now () -. t0) *. 1000.;
  }

(* ------------------------------------------------------------------ *)
(* Rendering.  [render] is byte-identical across [jobs] settings: it
   includes no timing field. *)

let render_program_indented s =
  String.concat "\n"
    (List.map (fun l -> "    " ^ l) (String.split_on_char '\n' (Stmt.to_string s)))

let render_finding (fi : finding) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "FINDING %s exec=#%d fp=%s\n  %s\n" fi.oracle fi.index
       fi.fingerprint fi.detail);
  (match fi.shrunk with
   | Some s ->
     Buffer.add_string b
       (Printf.sprintf "  shrunk to %d statement(s) in %d step(s):\n%s\n"
          (Stmt.size s) fi.shrink_steps (render_program_indented s))
   | None ->
     Buffer.add_string b
       (Printf.sprintf "  program (%d statement(s)):\n%s\n"
          (Stmt.size fi.program)
          (render_program_indented fi.program)));
  Buffer.contents b

let render (r : report) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "seqfuzz seed=%d execs=%d unique=%d dedup=%d\n" r.seed
       r.requested_execs r.unique_execs r.dedup_dropped);
  (match r.cov with
   | None -> ()
   | Some c ->
     Buffer.add_string b
       (Printf.sprintf
          "coverage: points=%d admitted=%d corpus=%d resumed=%d fresh=%d\n"
          c.cov_points c.cov_admitted c.corpus_size c.resumed c.fresh_execs));
  List.iter
    (fun (nm, hit) ->
      match hit with
      | Some fi ->
        Buffer.add_string b
          (Printf.sprintf "PLANTED %-20s REFUTED at exec #%d%s\n" nm fi.index
             (match fi.shrunk with
              | Some s ->
                Printf.sprintf " (shrunk to %d statement(s))" (Stmt.size s)
              | None -> ""))
      | None ->
        Buffer.add_string b (Printf.sprintf "PLANTED %-20s SURVIVED\n" nm))
    r.planted;
  List.iter (fun fi -> Buffer.add_string b (render_finding fi)) r.findings;
  List.iter
    (fun (_, hit) ->
      match hit with
      | Some ({ shrunk = Some _; _ } as fi) ->
        Buffer.add_string b (render_finding fi)
      | _ -> ())
    r.planted;
  Buffer.add_string b
    (Printf.sprintf
       "summary: findings=%d planted_refuted=%d/%d unknowns=%d quarantined=%d shrink_steps=%d\n"
       (List.length r.findings)
       (List.length (List.filter (fun (_, h) -> h <> None) r.planted))
       (List.length r.planted) r.unknowns r.quarantined r.shrink_steps_total);
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let json_of_finding (fi : finding) : Service.Json.t =
  Service.Json.Obj
    ([
       ("oracle", Service.Json.String fi.oracle);
       ("exec", Service.Json.Int fi.index);
       ("fingerprint", Service.Json.String fi.fingerprint);
       ("detail", Service.Json.String fi.detail);
       ("program", Service.Json.String (Stmt.to_string fi.program));
     ]
     @ (match fi.shrunk with
        | None -> []
        | Some s ->
          [
            ("shrunk", Service.Json.String (Stmt.to_string s));
            ("shrunk_size", Service.Json.Int (Stmt.size s));
            ("shrink_steps", Service.Json.Int fi.shrink_steps);
          ]))

(** The campaign as a JSON document; the fuzz row of the seq-bench/2
    schema embeds the same fields (docs/ENGINE.md). *)
let json (r : report) : Service.Json.t =
  Service.Json.Obj
    ([
      ("seed", Service.Json.Int r.seed);
      ("execs", Service.Json.Int r.requested_execs);
      ("unique", Service.Json.Int r.unique_execs);
      ("dedup_dropped", Service.Json.Int r.dedup_dropped);
      ( "dedup_rate",
        Service.Json.Float
          (if r.requested_execs = 0 then 0.
           else float_of_int r.dedup_dropped /. float_of_int r.requested_execs)
      );
      ("findings", Service.Json.List (List.map json_of_finding r.findings));
      ( "planted",
        Service.Json.List
          (List.map
             (fun (nm, hit) ->
               Service.Json.Obj
                 ([
                    ("variant", Service.Json.String nm);
                    ("refuted", Service.Json.Bool (hit <> None));
                  ]
                  @
                  match hit with
                  | None -> []
                  | Some fi -> [ ("finding", json_of_finding fi) ]))
             r.planted) );
      ("unknowns", Service.Json.Int r.unknowns);
      ("quarantined", Service.Json.Int r.quarantined);
      ("shrink_steps", Service.Json.Int r.shrink_steps_total);
    ]
     @ (match r.cov with
        | None -> []
        | Some c ->
          [
            ( "coverage",
              Service.Json.Obj
                [
                  ("points", Service.Json.Int c.cov_points);
                  ("admitted", Service.Json.Int c.cov_admitted);
                  ("corpus", Service.Json.Int c.corpus_size);
                  ("resumed", Service.Json.Int c.resumed);
                  ("fresh", Service.Json.Int c.fresh_execs);
                  ("persisted", Service.Json.Int c.persisted);
                ] );
          ])
     @ [
         ("wall_ms", Service.Json.Float r.wall_ms);
         ("execs_per_s", Service.Json.Float (execs_per_s r));
       ])
