(** Benchmark and reproduction harness.

    The paper's evaluation is a body of formal claims, not measurement
    tables (its figures are definitions).  This harness regenerates every
    claim as a table (experiments E1–E8 of DESIGN.md), then runs bechamel
    micro-benchmarks (P1–P5) for the throughput of the checkers, the
    explorer, and the optimizer.

    The heavy matrices (E1/E2, E4, E5) are swept in parallel by the
    engine (lib/engine, docs/ENGINE.md); [--jobs N] sets the domain
    count.  Swept tables are byte-identical for every N except the
    wall-clock columns (ms / "swept in" lines).

    Usage: dune exec bench/main.exe [-- --full] [-- --no-bechamel]
    [-- --jobs N]
    [--full] also sweeps the complete adequacy matrix (E5) instead of the
    default slice.

    Robustness flags (docs/ROBUSTNESS.md): [--timeout-ms MS] and
    [--max-states N] bound every swept task with a cooperative budget,
    [--retries N] retries transient failures, [--inject-faults N] (with
    [--inject-seed S]) drills the supervisor by making N tasks per table
    raise.  The swept tables always go through the supervised sweep:
    failed rows print as UNKNOWN(reason), nothing ever escapes, and their
    mismatches and unknowns reach the JSON summary and the exit code.

    [--service] appends E10: an in-process seqd (lib/service) is started
    on a temp socket with a fresh on-disk cache, the transformation corpus
    is streamed through it three times — cold, warm (same server), and
    again after a server restart — and the table reports throughput and
    the serving-tier split per pass.  The warm pass must answer entirely
    from cache (zero computed checks) or the run counts a mismatch.

    [--json PATH] additionally writes every table (rows and wall-clock
    timings) as one JSON document; the schema is documented in
    docs/ENGINE.md.  Out-of-range flags exit 2 with a one-line message
    (README exit-code table).  Exit 0: clean (or [--keep-going]);
    3: mismatch/violation; 4: some rows UNKNOWN. *)

open Lang
module C = Litmus.Catalog
module M = Promising.Machine
module Matrix = Litmus.Matrix

module J = Service.Json

let header title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

(* Machine-readable record of the run (--json PATH): every table appends
   one object here; the schema is documented in docs/ENGINE.md. *)
let json_tables : J.t list ref = ref []

let add_table ?ms id title rows =
  let obj =
    [ ("id", J.String id); ("title", J.String title) ]
    @ (match ms with Some ms -> [ ("ms", J.Float ms) ] | None -> [])
    @ [ ("rows", J.List rows) ]
  in
  json_tables := J.Obj obj :: !json_tables

(* A supervised sweep row as JSON: the [Ok] payload via [row], an
   [Error] as its normalized reason. *)
let jrow_outcome ~name ~row (o : _ Engine.Sweep.outcome) =
  match o.Engine.Sweep.result with
  | Ok r -> J.Obj (("name", J.String name) :: row r)
  | Error reason ->
    J.Obj
      [ ("name", J.String name);
        ("unknown", J.String (Engine.Verdict.reason_to_string reason)) ]

(* Wall-clock line for a swept table: timing only, everything above it is
   deterministic. *)
let swept_in jobs ms = Fmt.pr "-- swept in %.1f ms (jobs=%d)@." ms jobs

let values = Domain.default_values

(* Robustness configuration shared by the swept tables. *)
type robust = {
  spec : Engine.Budget.spec;
  retries : int;
  inject_faults : int;
  inject_seed : int;
}

let faults_for (r : robust) ~tasks =
  if r.inject_faults = 0 then Engine.Faults.none
  else
    Engine.Faults.seeded ~seed:r.inject_seed ~tasks ~faulty:r.inject_faults ()

let mismatches = ref 0
let unknowns = ref 0

let count_outcomes ~ok rows =
  List.iter
    (fun (_, (o : _ Engine.Sweep.outcome)) ->
      match o.Engine.Sweep.result with
      | Ok r -> if not (ok r) then incr mismatches
      | Error _ -> incr unknowns)
    rows

(* One swept table: [sweep ~faults] runs the supervised sweep over
   [tasks] tasks under [robust]'s fault plan; the table is printed with
   its timing column, its failed rows and the rows that fail [ok] are
   counted into the run's summary, and its rows are recorded as JSON. *)
let swept_table ~pool ~robust ~id ~title ~tasks ~sweep ~render ~ok ~name
    ~jrow =
  let faults = faults_for robust ~tasks in
  let rows, ms = Engine.Stats.timed (fun () -> sweep ~faults) in
  Fmt.pr "%s" (render rows);
  count_outcomes ~ok rows;
  add_table ~ms id title
    (List.map (fun (t, o) -> jrow_outcome ~name:(name t) ~row:jrow o) rows);
  swept_in (Engine.Pool.size pool) ms

(* ------------------------------------------------------------------ *)
(* E1/E2: the transformation soundness matrix                           *)
(* ------------------------------------------------------------------ *)

let transformation_matrix ~pool ~robust () =
  let title =
    "E1/E2 — Transformation soundness matrix (SEQ, Def 2.4 and Def 3.3)"
  in
  header title;
  let jrow (r : Matrix.e12_row) =
    [ ("expected_simple", J.String (C.verdict_to_string r.tr.C.simple));
      ("expected_advanced", J.String (C.verdict_to_string r.tr.C.advanced));
      ("got_simple", J.String (C.verdict_to_string r.simple_got));
      ("got_advanced", J.String (C.verdict_to_string r.advanced_got));
      ("pairs", J.Int r.pairs);
      ("ok", J.Bool (Matrix.e12_ok r)) ]
  in
  swept_table ~pool ~robust ~id:"E1/E2" ~title
    ~tasks:(List.length C.transformations)
    ~sweep:(fun ~faults ->
      Matrix.e12_rows ~pool ~budget:robust.spec ~retries:robust.retries
        ~faults ())
    ~render:(Matrix.render_e12 ~stats:true)
    ~ok:Matrix.e12_ok
    ~name:(fun (t : C.transformation) -> t.C.name)
    ~jrow

(* ------------------------------------------------------------------ *)
(* E3: the certified optimizer                                          *)
(* ------------------------------------------------------------------ *)

let optimizer_table () =
  let title =
    "E3 — Certified optimizer (§4): passes, fixpoint iterations, validation"
  in
  header title;
  let jrows = ref [] in
  let programs =
    [
      ("Fig4",
       "X.store(na, 2); l = Y.load(acq); \
        if l == 0 { a = X.load(na); Y.store(rel, 1) }; \
        b = X.load(na); return 10*a + b");
      ("loop-kernel",
       "X.store(na, 1); X.store(na, 2); s = 0; i = 0; \
        while i < 2 { a = X.load(na); b = X.load(na); s = s + a + b; \
        i = i + 1 }; return s");
      ("dse-rel",
       "X.store(na, 1); Y.store(rel, 0); X.store(na, 2)");
      ("llf-chain",
       "a = X.load(na); Y.store(rel, 1); b = X.load(na); c = X.load(na); \
        return a + 3*b + 9*c");
    ]
  in
  Fmt.pr "%-12s %-6s %-6s %-6s %-6s %-10s %-10s %s@." "program" "slf" "llf"
    "dse" "licm" "iters<=3" "size" "validated";
  let fp = ref Engine.Stats.fastpath_zero in
  let (), table_ms =
    Engine.Stats.timed @@ fun () ->
  List.iter
    (fun (name, src) ->
      let prog = Parser.stmt_of_string src in
      let report, v = Optimizer.Validate.certified_optimize prog in
      let rewrites p =
        match
          List.find_opt
            (fun (r : Optimizer.Driver.pass_report) -> r.Optimizer.Driver.pass = p)
            report.Optimizer.Driver.passes
        with
        | Some r -> r.Optimizer.Driver.rewrites
        | None -> 0
      in
      let max_iters =
        List.fold_left
          (fun acc (r : Optimizer.Driver.pass_report) ->
            max acc r.Optimizer.Driver.loop_iters)
          1 report.Optimizer.Driver.passes
      in
      let route =
        match v.Optimizer.Validate.proof with
        | Optimizer.Validate.Static _ ->
          fp :=
            Engine.Stats.add_fastpath !fp
              { Engine.Stats.static_hits = 1; static_abs_hits = 0;
                enumerated = 0 };
          "static"
        | Optimizer.Validate.Static_abs _ ->
          fp :=
            Engine.Stats.add_fastpath !fp
              { Engine.Stats.static_hits = 0; static_abs_hits = 1;
                enumerated = 0 };
          "static-abs"
        | Optimizer.Validate.Enumerated ->
          fp :=
            Engine.Stats.add_fastpath !fp
              { Engine.Stats.static_hits = 0; static_abs_hits = 0;
                enumerated = 1 };
          "enum"
      in
      let validated =
        if v.Optimizer.Validate.valid then
          if v.Optimizer.Validate.simple then
            Printf.sprintf "ok (simple, %s)" route
          else Printf.sprintf "ok (advanced, %s)" route
        else "INVALID"
      in
      jrows :=
        J.Obj
          [ ("name", J.String name);
            ("slf", J.Int (rewrites Optimizer.Driver.SLF));
            ("llf", J.Int (rewrites Optimizer.Driver.LLF));
            ("dse", J.Int (rewrites Optimizer.Driver.DSE));
            ("licm", J.Int (rewrites Optimizer.Driver.LICM));
            ("iters", J.Int max_iters);
            ("size_before", J.Int report.Optimizer.Driver.size_before);
            ("size_after", J.Int report.Optimizer.Driver.size_after);
            ("valid", J.Bool v.Optimizer.Validate.valid);
            ("simple", J.Bool v.Optimizer.Validate.simple);
            ("route", J.String route) ]
        :: !jrows;
      Fmt.pr "%-12s %-6d %-6d %-6d %-6d %-10s %-10s %s@." name
        (rewrites Optimizer.Driver.SLF)
        (rewrites Optimizer.Driver.LLF)
        (rewrites Optimizer.Driver.DSE)
        (rewrites Optimizer.Driver.LICM)
        (Printf.sprintf "%d %s" max_iters (if max_iters <= 3 then "ok" else "BAD"))
        (Printf.sprintf "%d->%d" report.Optimizer.Driver.size_before
           report.Optimizer.Driver.size_after)
        validated)
    programs
  in
  add_table ~ms:table_ms "E3" title (List.rev !jrows);
  Fmt.pr "-- fast path: %a@." Engine.Stats.pp_fastpath !fp

(* ------------------------------------------------------------------ *)
(* E4: PS_na litmus outcomes                                            *)
(* ------------------------------------------------------------------ *)

let litmus_table ~pool ~robust () =
  let title = "E4 — PS_na behaviors of the paper's concurrent programs (Fig 5)" in
  header title;
  let jrow (r : Matrix.e4_row) =
    [ ("states", J.Int r.states);
      ("races", J.Bool r.races);
      ("truncated", J.Bool r.truncated);
      ("behaviors", J.String r.behaviors) ]
  in
  swept_table ~pool ~robust ~id:"E4" ~title
    ~tasks:(List.length C.concurrent_programs)
    ~sweep:(fun ~faults ->
      Matrix.e4_rows ~pool ~budget:robust.spec ~retries:robust.retries
        ~faults ())
    ~render:(Matrix.render_e4 ~stats:true)
    ~ok:(fun (_ : Matrix.e4_row) -> true)
    ~name:(fun (c : C.concurrent) -> c.C.cname)
    ~jrow

(* ------------------------------------------------------------------ *)
(* E15: the N-model differential backend grid                           *)
(* ------------------------------------------------------------------ *)

let backend_grid_table ~pool ~robust () =
  let title =
    "E15 — Differential litmus grid: {SC, TSO, ARMv8, PS_na} with the \
     inclusion chain SC ⊆ TSO ⊆ ARMv8"
  in
  header title;
  let jrow (r : Matrix.e15_row) =
    [ ("weak", J.List (List.map (fun n -> J.Int n) r.ge.C.weak));
      ( "models",
        J.Obj (List.map (fun (m, allowed) -> (m, J.Bool allowed)) r.cells) );
      ("chain_ok", J.Bool r.chain_ok);
      ("truncated", J.Bool r.truncated);
      ("ok", J.Bool (Matrix.e15_ok r)) ]
  in
  swept_table ~pool ~robust ~id:"E15" ~title
    ~tasks:(List.length C.grid_programs)
    ~sweep:(fun ~faults ->
      Matrix.e15_rows ~pool ~budget:robust.spec ~retries:robust.retries
        ~faults ())
    ~render:(Matrix.render_e15 ~stats:true)
    ~ok:Matrix.e15_ok
    ~name:(fun (ge : C.grid_entry) -> ge.C.g.C.cname)
    ~jrow;
  (* the pass-soundness half: SEQ-validated passes re-checked as
     behavior-set refinement per backend (catchfire included — the one
     model that refutes load introduction, E6) *)
  let ptitle =
    "E15 — Pass soundness per backend: SEQ-validated passes in a \
     concurrent context"
  in
  header ptitle;
  let pjrow (r : Matrix.e15p_row) =
    [ ("context", J.String r.ctx_name);
      ( "models",
        J.Obj (List.map (fun (m, refines) -> (m, J.Bool refines)) r.cells) );
      ("truncated", J.Bool r.truncated) ]
  in
  swept_table ~pool ~robust ~id:"E15-passes" ~title:ptitle
    ~tasks:(List.length C.grid_passes)
    ~sweep:(fun ~faults ->
      Matrix.e15p_rows ~pool ~budget:robust.spec ~retries:robust.retries
        ~faults ())
    ~render:(Matrix.render_e15p ~stats:true)
    ~ok:(fun (_ : Matrix.e15p_row) -> true)
    ~name:fst ~jrow:pjrow

(* ------------------------------------------------------------------ *)
(* E5: adequacy                                                         *)
(* ------------------------------------------------------------------ *)

let adequacy_table ~pool ~full ~robust () =
  let title =
    if full then "E5 — Adequacy (Thm 6.2): full corpus × context matrix"
    else "E5 — Adequacy (Thm 6.2): corpus slice (use --full for the matrix)"
  in
  header title;
  let jrow (r : Litmus.Adequacy.row) =
    [ ("seq_simple", J.Bool r.seq_simple);
      ("seq_advanced", J.Bool r.seq_advanced);
      ("pairs", J.Int r.seq_pairs);
      ("states", J.Int r.states);
      ("ok", J.Bool (Litmus.Adequacy.row_ok r));
      ( "contexts",
        J.List
          (List.map
             (fun (cname, refines, complete) ->
               J.Obj
                 [ ("name", J.String cname);
                   ("refines", J.Bool refines);
                   ("complete", J.Bool complete) ])
             r.contexts) ) ]
  in
  let corpus =
    if full then C.transformations
    else List.filteri (fun i _ -> i mod 4 = 0) C.transformations
  in
  let contexts =
    if full then C.contexts else List.filteri (fun i _ -> i < 4) C.contexts
  in
  swept_table ~pool ~robust ~id:"E5" ~title ~tasks:(List.length corpus)
    ~sweep:(fun ~faults ->
      Litmus.Adequacy.run ~pool ~contexts ~budget:robust.spec
        ~retries:robust.retries ~faults ~corpus ())
    ~render:(Matrix.render_e5 ~stats:true)
    ~ok:Litmus.Adequacy.row_ok
    ~name:(fun (t : C.transformation) -> t.C.name)
    ~jrow

(* ------------------------------------------------------------------ *)
(* E6: catch-fire comparison                                            *)
(* ------------------------------------------------------------------ *)

let catchfire_table () =
  let title = "E6 — Load introduction: PS_na vs the catch-fire baseline (§1)" in
  header title;
  let jrows = ref [] in
  let cases =
    [
      ("load-intro", "return 0", "a = X.load(na); return 0",
       "X.store(na, 1); return 0");
      ("licm-dead-loop",
       "b = 1; while b == 0 { a = X.load(na); b = Y.load(rlx) }; return a",
       "b = 1; c = X.load(na); while b == 0 { a = c; b = Y.load(rlx) }; return a",
       "X.store(na, 2); return 0");
      ("slf", "X.store(na, 1); b = X.load(na); return b",
       "X.store(na, 1); b = 1; return b", "Y.store(rel, 1); return 0");
    ]
  in
  Fmt.pr "%-16s %-12s %-12s@." "transformation" "PS_na" "catch-fire";
  let (), table_ms =
    Engine.Stats.timed @@ fun () ->
    List.iter
      (fun (name, src, tgt, ctx) ->
        let th s = Parser.threads_of_string (s ^ " ||| " ^ ctx) in
        let ps_ok =
          let rs = M.explore (th src) and rt = M.explore (th tgt) in
          M.refines ~src:rs.M.behaviors ~tgt:rt.M.behaviors
        in
        let cf_ok =
          let rs = Baselines.Catchfire.explore (th src) in
          let rt = Baselines.Catchfire.explore (th tgt) in
          Baselines.Catchfire.refines ~src:rs ~tgt:rt
        in
        jrows :=
          J.Obj
            [ ("name", J.String name);
              ("ps_na_sound", J.Bool ps_ok);
              ("catchfire_sound", J.Bool cf_ok) ]
          :: !jrows;
        Fmt.pr "%-16s %-12s %-12s@." name
          (if ps_ok then "sound" else "unsound")
          (if cf_ok then "sound" else "unsound"))
      cases
  in
  add_table ~ms:table_ms "E6" title (List.rev !jrows)

(* ------------------------------------------------------------------ *)
(* E7: DRF guarantees                                                   *)
(* ------------------------------------------------------------------ *)

let drf_table () =
  let title = "E7 — DRF guarantees (§5 Results, ported from [8])" in
  header title;
  let jrows = ref [] in
  let cases =
    [
      ("MP-rel-acq",
       "X.store(na,1); Y.store(rel,1); return 0 ||| \
        a = Y.load(acq); if a == 1 { b = X.load(na) }; return 10*a+b", 1);
      ("SB-rel-acq",
       "Y.store(rel,1); a = Z.load(acq); return a ||| \
        Z.store(rel,1); b = Y.load(acq); return b", 1);
      ("LB-rlx",
       "a = Y.load(rlx); Z.store(rlx,1); return a ||| \
        b = Z.load(rlx); Y.store(rlx,1); return b", 1);
      ("lock",
       "a = 0; while a == 0 { a = cas(L, 0, 1) }; X.store(na, 1); \
        L.store(rel, 0); return 0 ||| \
        b = 0; while b == 0 { b = cas(L, 0, 1) }; c = X.load(na); \
        L.store(rel, 0); return c", 0);
    ]
  in
  Fmt.pr "%-12s %-11s %-11s %-13s %-11s@." "program" "PF-racefree" "DRF-PF"
    "LOCK-racefree" "DRF-LOCK";
  let (), table_ms =
    Engine.Stats.timed @@ fun () ->
    List.iter
      (fun (name, text, budget) ->
        let params =
          { Promising.Thread.default_params with promise_budget = budget }
        in
        let lock_locs =
          if name = "lock" then Loc.Set.singleton (Loc.make "L")
          else Loc.Set.empty
        in
        let r =
          Baselines.Drf.check ~params ~lock_locs (Parser.threads_of_string text)
        in
        let show premise conclusion =
          if premise then if conclusion then "holds" else "FAILS" else "vacuous"
        in
        jrows :=
          J.Obj
            [ ("name", J.String name);
              ("pf_race_free", J.Bool r.Baselines.Drf.pf_race_free);
              ("drf_pf", J.String
                 (show r.Baselines.Drf.pf_race_free
                    r.Baselines.Drf.drf_pf_holds));
              ("lock_race_free", J.Bool r.Baselines.Drf.lock_race_free);
              ("drf_lock", J.String
                 (show r.Baselines.Drf.lock_race_free
                    r.Baselines.Drf.drf_lock_holds)) ]
          :: !jrows;
        Fmt.pr "%-12s %-11b %-11s %-13b %-11s@." name
          r.Baselines.Drf.pf_race_free
          (show r.Baselines.Drf.pf_race_free r.Baselines.Drf.drf_pf_holds)
          r.Baselines.Drf.lock_race_free
          (show r.Baselines.Drf.lock_race_free r.Baselines.Drf.drf_lock_holds))
      cases
  in
  add_table ~ms:table_ms "E7" title (List.rev !jrows)

(* ------------------------------------------------------------------ *)
(* E8: determinism premise / Remark 3 / App C                           *)
(* ------------------------------------------------------------------ *)

let determinism_table () =
  let title = "E8 — Remark 3 / App C: internal choice vs release writes" in
  header title;
  let jrows = ref [] in
  let check name src tgt =
    let src = Parser.stmt_of_string src and tgt = Parser.stmt_of_string tgt in
    let o =
      Optimizer.Validate.run ~values ~notion:Advanced_only ~fast_path:false
        ~src ~tgt ()
    in
    let adv = snd (Optimizer.Validate.notions o.answer) in
    jrows :=
      J.Obj [ ("name", J.String name); ("accepted", J.Bool adv) ] :: !jrows;
    Fmt.pr "%-44s %s@." name (if adv then "accepted" else "refuted")
  in
  let (), table_ms =
    Engine.Stats.timed @@ fun () ->
    check "choose ; rel-write  ~>  rel-write ; choose"
      "a = choose(); Y.store(rel, 1); return a"
      "Y.store(rel, 1); a = choose(); return a";
    check "choose ; na-write  ~>  na-write ; choose"
      "a = choose(); X.store(na, 1); return a"
      "X.store(na, 1); a = choose(); return a"
  in
  add_table ~ms:table_ms "E8" title (List.rev !jrows);
  Fmt.pr "(SEQ records choose(_) labels precisely so the first reordering is@.";
  Fmt.pr " refuted — PS forbids it, App C — while the second stays allowed.)@."

(* ------------------------------------------------------------------ *)
(* E9: static fast-path validation over the transformation corpus       *)
(* ------------------------------------------------------------------ *)

let fastpath_table () =
  let title =
    "E9 — Static fast-path validation: pipeline-replay certificates vs \
     enumeration"
  in
  header title;
  (* The fast path may only ever certify pairs whose advanced refinement
     holds; the catalog's expected verdicts are the (already enumerated)
     ground truth, so no re-enumeration is needed to audit agreement. *)
  let fp = ref Engine.Stats.fastpath_zero in
  let jrows = ref [] in
  Fmt.pr "%-22s %-10s %-10s %s@." "transformation" "expected" "route" "agree";
  let (), table_ms =
    Engine.Stats.timed @@ fun () ->
    List.iter
      (fun (t : C.transformation) ->
        let src = Parser.stmt_of_string t.C.src in
        let tgt = Parser.stmt_of_string t.C.tgt in
        let cert = Optimizer.Certify.attempt ~src ~tgt () in
        let route, agree =
          match cert with
          | Some c ->
            fp :=
              Engine.Stats.add_fastpath !fp
                { Engine.Stats.static_hits = 1; static_abs_hits = 0;
                  enumerated = 0 };
            let sound = t.C.advanced = C.Sound in
            let honest = Optimizer.Certify.replay c ~src ~tgt in
            ( Printf.sprintf "static/%d" (List.length c.Optimizer.Certify.stages),
              if sound && honest then "ok"
              else begin
                incr mismatches;
                "MISMATCH"
              end )
          | None ->
            fp :=
              Engine.Stats.add_fastpath !fp
                { Engine.Stats.static_hits = 0; static_abs_hits = 0;
                  enumerated = 1 };
            ("enum", "-")
        in
        jrows :=
          J.Obj
            [ ("name", J.String t.C.name);
              ("expected", J.String (C.verdict_to_string t.C.advanced));
              ("route", J.String route);
              ("agree", J.String agree) ]
          :: !jrows;
        Fmt.pr "%-22s %-10s %-10s %s@." t.C.name
          (C.verdict_to_string t.C.advanced)
          route agree)
      C.transformations
  in
  add_table ~ms:table_ms "E9" title (List.rev !jrows);
  Fmt.pr "-- fast path: %a@." Engine.Stats.pp_fastpath !fp;
  if (!fp).Engine.Stats.static_hits = 0 then begin
    incr mismatches;
    Fmt.pr "-- ERROR: expected a nonzero static hit rate@."
  end

(* ------------------------------------------------------------------ *)
(* E14: abstract-interpretation certificates over the corpus           *)
(* ------------------------------------------------------------------ *)

let certabs_table () =
  let title =
    "E14 — seqabs certificates: abstract-interpretation coverage and \
     fast-path uplift over pipeline replay"
  in
  header title;
  (* Same ground-truth audit as E9: a certificate (of either kind) on a
     pair whose advanced verdict is Unsound would be a soundness bug in
     the certifier, counted as a mismatch.  The uplift the table exists
     to record is the set of Sound pairs the abstract certifier proves
     that pipeline replay cannot reach. *)
  let replay = ref 0 and abs = ref 0 and union = ref 0 in
  let jrows = ref [] in
  Fmt.pr "%-22s %-10s %-14s %s@." "transformation" "expected" "route" "agree";
  let (), table_ms =
    Engine.Stats.timed @@ fun () ->
    List.iter
      (fun (t : C.transformation) ->
        let src = Parser.stmt_of_string t.C.src in
        let tgt = Parser.stmt_of_string t.C.tgt in
        let cert = Optimizer.Certify.attempt ~src ~tgt () in
        let acert = Optimizer.Certabs.attempt ~src ~tgt () in
        if cert <> None then incr replay;
        if acert <> None then incr abs;
        if cert <> None || acert <> None then incr union;
        let route =
          match (cert, acert) with
          | Some _, Some _ -> "static+abs"
          | Some _, None -> "static"
          | None, Some c ->
            Printf.sprintf "static-abs/%d"
              (List.length c.Optimizer.Certabs.rules)
          | None, None -> "enum"
        in
        let sound = t.C.advanced = C.Sound in
        let agree =
          if cert = None && acert = None then "-"
          else if sound then "ok"
          else begin
            incr mismatches;
            "MISMATCH"
          end
        in
        jrows :=
          J.Obj
            [ ("name", J.String t.C.name);
              ("expected", J.String (C.verdict_to_string t.C.advanced));
              ("route", J.String route);
              ("agree", J.String agree) ]
          :: !jrows;
        Fmt.pr "%-22s %-10s %-14s %s@." t.C.name
          (C.verdict_to_string t.C.advanced)
          route agree)
      C.transformations
  in
  let total = List.length C.transformations in
  jrows :=
    J.Obj
      [ ("name", J.String "coverage");
        ("replay", J.Int !replay);
        ("abstract", J.Int !abs);
        ("union", J.Int !union);
        ("total", J.Int total) ]
    :: !jrows;
  add_table ~ms:table_ms "E14" title (List.rev !jrows);
  Fmt.pr
    "-- certifier coverage: replay %d/%d, abstract %d/%d, union %d/%d \
     (uplift +%d)@."
    !replay total !abs total !union total (!union - !replay);
  if !union <= !replay then begin
    incr mismatches;
    Fmt.pr
      "-- ERROR: the abstract certifier adds no coverage over pipeline \
       replay@."
  end

(* ------------------------------------------------------------------ *)
(* E11: seqfuzz campaign throughput — execs/s, dedup rate, shrinking    *)
(* ------------------------------------------------------------------ *)

let fuzz_table ~pool ~robust () =
  let title =
    "E11 — seqfuzz: campaign throughput (dedup, shrink steps, planted \
     refutations)"
  in
  header title;
  (* an unlimited budget is not viable here (the enumerated oracles are
     exponential in the acquire count of generated programs), so the
     default mirrors seqfuzz's own: a 10k state budget per check *)
  let budget =
    if Engine.Budget.spec_is_unlimited robust.spec then
      Engine.Budget.spec ~max_states:10_000 ()
    else robust.spec
  in
  (* the wall-clock column must be the trailing bare float, like every
     other table, so the jobs=1 vs jobs=N output diff can strip it;
     execs/s is derived from it and lives only in the JSON record *)
  Fmt.pr "%6s %7s %6s %11s %9s %8s %8s@." "execs" "unique" "dedup" "findings"
    "planted" "shrink" "ms";
  let jrows =
    List.map
      (fun max_execs ->
        let r = Fuzz.Campaign.run ~pool ~budget ~seed:2 ~max_execs () in
        let dedup_rate =
          if r.Fuzz.Campaign.requested_execs = 0 then 0.
          else
            float_of_int r.Fuzz.Campaign.dedup_dropped
            /. float_of_int r.Fuzz.Campaign.requested_execs
        in
        let nfindings = List.length r.Fuzz.Campaign.findings in
        let nplanted =
          List.length
            (List.filter (fun (_, h) -> h <> None) r.Fuzz.Campaign.planted)
        in
        (* a real finding at bench scale is a genuine cross-layer
           disagreement; planted coverage is only reported here (the CI
           smoke run asserts it at full campaign scale) *)
        if nfindings > 0 then begin
          mismatches := !mismatches + nfindings;
          List.iter
            (fun fi -> Fmt.pr "-- ERROR: %s@." (Fuzz.Campaign.render_finding fi))
            r.Fuzz.Campaign.findings
        end;
        Fmt.pr "%6d %7d %5.0f%% %11d %7d/%d %8d %.1f@."
          r.Fuzz.Campaign.requested_execs r.Fuzz.Campaign.unique_execs
          (100. *. dedup_rate) nfindings nplanted
          (List.length r.Fuzz.Campaign.planted)
          r.Fuzz.Campaign.shrink_steps_total r.Fuzz.Campaign.wall_ms;
        J.Obj
          [ ("execs", J.Int r.Fuzz.Campaign.requested_execs);
            ("unique", J.Int r.Fuzz.Campaign.unique_execs);
            ("dedup_rate", J.Float dedup_rate);
            ("findings", J.Int nfindings);
            ("planted_refuted", J.Int nplanted);
            ("shrink_steps", J.Int r.Fuzz.Campaign.shrink_steps_total);
            ("unknowns", J.Int r.Fuzz.Campaign.unknowns);
            ("wall_ms", J.Float r.Fuzz.Campaign.wall_ms);
            ("execs_per_s", J.Float (Fuzz.Campaign.execs_per_s r)) ])
      [ 40; 80 ]
  in
  add_table "E11" title jrows

(* ------------------------------------------------------------------ *)
(* E16: coverage-guided fuzzing — blind vs guided campaigns            *)
(* ------------------------------------------------------------------ *)

(* Both campaigns share the generation skeleton (same seed, same
   per-index RNG streams, same fresh/mutant parity), so their exec
   numbering is directly comparable: the refute:<variant> rows record
   the first corpus index refuting each planted variant under blind and
   guided mutation.  The guard holds guided to refuting every variant
   in no more execs than blind, and to strictly more coverage points —
   the two claims the subsystem exists to deliver. *)
let guided_fuzz_table ~pool ~robust () =
  let title =
    "E16 — coverage-guided fuzzing: blind vs guided campaigns (coverage \
     growth, execs-to-refute per planted variant)"
  in
  header title;
  (* mirrors the refutation test in test/test_fuzz.ml: at this budget a
     blind seed-2 campaign refutes all five variants, so the comparison
     is between two fully-refuting campaigns, not a coverage race *)
  let user_limits = not (Engine.Budget.spec_is_unlimited robust.spec) in
  let budget =
    if user_limits then robust.spec
    else Engine.Budget.spec ~max_states:20_000 ()
  in
  let seed = 2 and max_execs = 150 in
  let campaign ~guided =
    Fuzz.Campaign.run ~pool ~budget ~seed ~max_execs
      ~oracles:[ Fuzz.Oracle.Pass_correct ] ~coverage:true ~guided ()
  in
  let blind = campaign ~guided:false in
  let guided = campaign ~guided:true in
  (* Under the user's own limits the guided campaign may run out of
     budget, or lose execs to injected faults, before it refutes a
     variant: a variant it missed is then undecided, not wrong.  A
     campaign that decided every exec and still missed one is wrong. *)
  let guided_undecided =
    user_limits
    && guided.Fuzz.Campaign.unknowns + guided.Fuzz.Campaign.quarantined > 0
  in
  let cov r =
    match r.Fuzz.Campaign.cov with
    | Some c -> (c.Fuzz.Campaign.cov_points, c.Fuzz.Campaign.cov_admitted,
                 c.Fuzz.Campaign.corpus_size)
    | None -> (0, 0, 0)
  in
  let nplanted r =
    List.length (List.filter (fun (_, h) -> h <> None) r.Fuzz.Campaign.planted)
  in
  let first_refute r nm =
    match List.assoc_opt nm r.Fuzz.Campaign.planted with
    | Some (Some fi) -> fi.Fuzz.Campaign.index
    | _ -> -1
  in
  Fmt.pr "%-8s %6s %7s %7s %9s %8s %8s@." "mode" "execs" "unique" "points"
    "admitted" "planted" "ms";
  let campaign_row name r =
    let points, admitted, corpus = cov r in
    Fmt.pr "%-8s %6d %7d %7d %9d %6d/%d %.1f@." name
      r.Fuzz.Campaign.requested_execs r.Fuzz.Campaign.unique_execs points
      admitted (nplanted r)
      (List.length r.Fuzz.Campaign.planted)
      r.Fuzz.Campaign.wall_ms;
    J.Obj
      [ ("name", J.String name);
        ("execs", J.Int r.Fuzz.Campaign.requested_execs);
        ("unique", J.Int r.Fuzz.Campaign.unique_execs);
        ("points", J.Int points);
        ("admitted", J.Int admitted);
        ("corpus", J.Int corpus);
        ("planted_refuted", J.Int (nplanted r));
        ("findings", J.Int (List.length r.Fuzz.Campaign.findings));
        ("unknowns", J.Int r.Fuzz.Campaign.unknowns);
        ("wall_ms", J.Float r.Fuzz.Campaign.wall_ms);
        ("execs_per_s", J.Float (Fuzz.Campaign.execs_per_s r)) ]
  in
  let blind_row = campaign_row "blind" blind in
  let guided_row = campaign_row "guided" guided in
  let variant_rows =
    List.map
      (fun (nm, _) ->
        let b = first_refute blind nm and g = first_refute guided nm in
        if g < 0 && guided_undecided then begin
          incr unknowns;
          Fmt.pr "  refute %-24s blind #%d  guided UNKNOWN(budget)@." nm b
        end
        else begin
          Fmt.pr "  refute %-24s blind #%d  guided #%d@." nm b g;
          if g < 0 then begin
            incr mismatches;
            Fmt.pr "-- ERROR: guided campaign failed to refute %s@." nm
          end
        end;
        J.Obj
          [ ("name", J.String ("refute:" ^ nm));
            ("blind_exec", J.Int b);
            ("guided_exec", J.Int g) ])
      blind.Fuzz.Campaign.planted
  in
  (* Both campaigns share the even (fresh) half of the corpus, so the
     per-variant indices tie wherever a fresh program is the first
     refuter; the regression signal is the aggregate — the exec count
     at which the LAST variant falls, i.e. how long a campaign must run
     to refute everything.  Guided must not need more than blind. *)
  let to_refute_all r =
    List.fold_left
      (fun acc (nm, _) ->
        let i = first_refute r nm in
        if acc < 0 || i < 0 then -1 else max acc i)
      0 r.Fuzz.Campaign.planted
  in
  let b_all = to_refute_all blind and g_all = to_refute_all guided in
  let guided_short = (g_all < 0 && not guided_undecided) || g_all > b_all in
  if b_all >= 0 && guided_short then begin
    incr mismatches;
    Fmt.pr "-- ERROR: guided needs more execs to refute all variants \
            (#%d > #%d)@." g_all b_all
  end;
  let bp, _, _ = cov blind and gp, _, _ = cov guided in
  Fmt.pr
    "-- coverage: blind %d points, guided %d points; all-refuted at blind \
     #%d, guided #%d@."
    bp gp b_all g_all;
  add_table "E16" title (blind_row :: guided_row :: variant_rows)

(* ------------------------------------------------------------------ *)
(* E12: enumeration core — packed fast path vs the reference checker   *)
(* ------------------------------------------------------------------ *)

(* Both sides run the same roots in the same process, so the speedup
   column is a ratio of two measurements under identical load —
   machine-independent, which is what the CI regression guard
   (bench/guard.ml) compares against bench/baseline.json.  The three
   small rows (totals of tens of ms) are timed as [e12_batches]
   alternating slow/fast batches of [reps] passes each and report the
   median batch times and the median batch ratio, so one disturbed
   batch cannot move the speedup.  Verdicts and explored pair counts
   must agree exactly (also enforced corpus-wide by
   test/test_diffcore.ml); a disagreement here is counted as a
   mismatch. *)
let e12_batches = 9

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let enumcore_table () =
  let title =
    "E12 — enumeration core: packed/memoized checkers vs the set-based \
     reference (identical verdicts and pair counts)"
  in
  header title;
  let parse tr =
    let src = Parser.stmt_of_string tr.C.src in
    let tgt = Parser.stmt_of_string tr.C.tgt in
    (Domain.of_stmts ~values [ src; tgt ], src, tgt)
  in
  let refine_roots (d, src, tgt) =
    Seq_model.Refine.initial_pairs d ~src:(Prog.init src) ~tgt:(Prog.init tgt)
  in
  let advanced_roots item =
    List.map
      (fun (p : Seq_model.Refine.pair) ->
        {
          Seq_model.Advanced.commit = Loc.Set.empty;
          tgt = p.Seq_model.Refine.tgt;
          src = p.Seq_model.Refine.src;
        })
      (refine_roots item)
  in
  let corpus = List.map parse C.transformations in
  (* the transformations the simple game refutes — the advanced checker's
     real workload (E1/E2 only runs it there, Prop 3.4 covers the rest) *)
  let refuted =
    List.filter
      (fun ((d, _, _) as item) ->
        not (Seq_model.Refine.check_pairs d (refine_roots item)))
      corpus
  in
  let slice = List.filteri (fun i _ -> i mod 4 = 0) corpus in
  (* the oracle-gate enumeration workload: generated programs at the
     fuzz baseline-env oracle's sizes and fuel (lib/fuzz/oracle.ml), all
     within the packed core's 16 locations.  The slow side is the
     set-based reference recursion (Seq_ref.Behavior), the fast side the
     hash-consed memoized core; the column labelled "pairs" counts
     enumerated behaviors here and must agree exactly. *)
  let enum_items =
    let rand = Random.State.make [| 42 |] in
    List.map
      (fun p ->
        let d = Domain.of_stmts [ p ] in
        let cfg = Seq_model.Config.make ~perm:(Domain.na_set d) (Prog.init p) in
        (d, cfg, (16 * Stmt.size p) + 64))
      (List.init 30 (fun i ->
           Gen.gen_program
             { Gen.default_config with Gen.allow_loops = true }
             rand ~size:(13 + (i mod 4))))
  in
  let enum_count ~memoized () =
    List.fold_left
      (fun acc (d, cfg, fuel) ->
        acc
        + Seq_model.Behavior.Set.cardinal
            (if memoized then
               Seq_model.Behavior.enumerate (Seq_model.Core.create d) ~fuel
                 cfg
             else Seq_ref.Behavior.enumerate d ~fuel cfg))
      0 enum_items
  in
  (* one full corpus pass per iteration; fixed repetition counts keep the
     slow side well above timer resolution *)
  let rows =
    [ ( "refine-corpus", 10,
        (fun () ->
          List.fold_left
            (fun acc ((d, _, _) as item) ->
              acc
              + snd (Seq_ref.Refine.check_pairs_count d
                       (refine_roots item)))
            0 corpus),
        fun () ->
          List.fold_left
            (fun acc ((d, _, _) as item) ->
              acc
              + snd (Seq_model.Refine.check_pairs_count d (refine_roots item)))
            0 corpus );
      ( "advanced-refuted", 10,
        (fun () ->
          List.fold_left
            (fun acc ((d, _, _) as item) ->
              acc
              + snd (Seq_ref.Advanced.check_pairs_count d
                       (advanced_roots item)))
            0 refuted),
        fun () ->
          List.fold_left
            (fun acc ((d, _, _) as item) ->
              acc
              + snd (Seq_model.Advanced.check_pairs_count d
                       (advanced_roots item)))
            0 refuted );
      ( "adequacy-seq-slice", 10,
        (fun () ->
          (* the SEQ side of an E5 adequacy row: the simple game, then the
             advanced game where simple refutes *)
          List.fold_left
            (fun acc ((d, _, _) as item) ->
              let ok, n =
                Seq_ref.Refine.check_pairs_count d (refine_roots item)
              in
              let n' =
                if ok then 0
                else
                  snd (Seq_ref.Advanced.check_pairs_count d
                         (advanced_roots item))
              in
              acc + n + n')
            0 slice),
        fun () ->
          List.fold_left
            (fun acc ((d, _, _) as item) ->
              let ok, n =
                Seq_model.Refine.check_pairs_count d (refine_roots item)
              in
              let n' =
                if ok then 0
                else
                  snd (Seq_model.Advanced.check_pairs_count d
                         (advanced_roots item))
              in
              acc + n + n')
            0 slice );
      ( "enumeration-oracle", 1, enum_count ~memoized:false,
        enum_count ~memoized:true ) ]
  in
  Fmt.pr "%-20s %8s %5s %10s %10s %9s@." "work item" "pairs" "reps"
    "slow ms" "fast ms" "speedup";
  let jrows =
    List.map
      (fun (name, reps, slow, fast) ->
        (* at reps = 1 the counting pass doubles as the timed pass (the
           enumeration row's slow side is tens of seconds) *)
        let timed_count f =
          Engine.Stats.timed (fun () ->
              let n = ref 0 in
              for _ = 1 to reps do n := f () done;
              !n)
        in
        let batches = if reps = 1 then 1 else e12_batches in
        (* (slow pairs, slow ms, fast pairs, fast ms) per batch; odd
           batches run the fast side first *)
        let runs =
          List.init batches (fun b ->
              if b mod 2 = 0 then
                let sp, sms = timed_count slow in
                let fp, fms = timed_count fast in
                (sp, sms, fp, fms)
              else
                let fp, fms = timed_count fast in
                let sp, sms = timed_count slow in
                (sp, sms, fp, fms))
        in
        (match List.find_opt (fun (sp, _, fp, _) -> sp <> fp) runs with
         | Some (slow_pairs, _, fast_pairs, _) ->
           incr mismatches;
           Fmt.pr "-- ERROR: %s explored %d pairs fast vs %d slow@." name
             fast_pairs slow_pairs
         | None -> ());
        let fast_pairs = match runs with (_, _, fp, _) :: _ -> fp | [] -> 0 in
        let slow_ms = median (List.map (fun (_, s, _, _) -> s) runs) in
        let fast_ms = median (List.map (fun (_, _, _, f) -> f) runs) in
        let speedup =
          median
            (List.map
               (fun (_, s, _, f) -> if f > 0. then s /. f else 0.)
               runs)
        in
        Fmt.pr "%-20s %8d %5d %10.1f %10.1f %8.1fx@." name fast_pairs reps
          slow_ms fast_ms speedup;
        J.Obj
          [ ("name", J.String name);
            ("pairs", J.Int fast_pairs);
            ("reps", J.Int reps);
            ("slow_ms", J.Float slow_ms);
            ("fast_ms", J.Float fast_ms);
            ("speedup", J.Float speedup) ])
      rows
  in
  Fmt.pr "-- rows with reps > 1: medians of %d alternating slow/fast \
          batches of reps passes each@." e12_batches;
  add_table "E12" title jrows

(* ------------------------------------------------------------------ *)
(* E10: the seqd service — cold vs warm corpus throughput, hit rate     *)
(* ------------------------------------------------------------------ *)

let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

let service_table ~jobs ~robust ~backend () =
  let title =
    "E10 — seqd service: corpus throughput per cache tier (cold/warm/restart)"
  in
  header title;
  let dir = temp_dir "seq-bench-e10" in
  let config =
    {
      Service.Server.socket_path = Filename.concat dir "seqd.sock";
      tcp = None;
      cache_dir = Some (Filename.concat dir "cache");
      mem_capacity = 4096;
      jobs;
      max_inflight = max 8 (2 * jobs);
      default_budget = robust.spec;
    }
  in
  let checks =
    List.map
      (fun (t : C.transformation) ->
        { Service.Proto.src = t.C.src; tgt = t.C.tgt; values = [];
          fast_path = true; backend })
      C.transformations
  in
  let n = List.length checks in
  let pass label =
    let results, ms =
      Engine.Stats.timed (fun () ->
          Service.Client.with_connection config.Service.Server.socket_path
            (fun c -> Service.Client.batch c checks))
    in
    let tier t =
      List.length
        (List.filter
           (fun (r : Service.Proto.check_result) -> r.Service.Proto.tier = t)
           results)
    in
    let computed = tier Service.Proto.Computed in
    let mem = tier Service.Proto.Mem in
    let disk = tier Service.Proto.Disk in
    let hit_rate = float_of_int (mem + disk) /. float_of_int n in
    let req_s = if ms > 0. then float_of_int n /. (ms /. 1000.) else 0. in
    Fmt.pr "%-14s %8.1f ms %10.0f req/s   computed=%-3d mem=%-3d disk=%-3d \
            hit-rate=%.2f@."
      label ms req_s computed mem disk hit_rate;
    (label, ms, req_s, computed, mem, disk, hit_rate)
  in
  Fmt.pr "%-14s %11s %16s   %s@." "pass" "wall" "throughput"
    "serving tiers";
  let handle = Service.Server.spawn config in
  let cold = pass "cold" in
  let warm = pass "warm" in
  Service.Server.stop handle;
  (* a fresh server on the same store: everything should come from disk *)
  let handle = Service.Server.spawn config in
  let disk_pass = pass "restart" in
  Service.Server.stop handle;
  let jrow (label, ms, req_s, computed, mem, disk, hit_rate) =
    J.Obj
      [ ("pass", J.String label);
        ("ms", J.Float ms);
        ("req_per_s", J.Float req_s);
        ("computed", J.Int computed);
        ("mem", J.Int mem);
        ("disk", J.Int disk);
        ("hit_rate", J.Float hit_rate) ]
  in
  add_table "E10" title (List.map jrow [ cold; warm; disk_pass ]);
  let check_full_hits label (_, _, _, computed, _, _, _) =
    if computed > 0 then begin
      incr mismatches;
      Fmt.pr "-- ERROR: %s pass recomputed %d checks (expected pure cache \
              hits)@."
        label computed
    end
  in
  (* under a finite budget some verdicts may be Unknown, which are never
     cached — only audit full-hit passes when every answer is cacheable *)
  if Engine.Budget.spec_is_unlimited robust.spec then begin
    check_full_hits "warm" warm;
    check_full_hits "restart" disk_pass
  end

(* ------------------------------------------------------------------ *)
(* E13: seqd under chaos — clean vs fault-injected per-request latency  *)
(* ------------------------------------------------------------------ *)

(* Fixed seed: the proxy's fault schedule and the client's backoff
   jitter are pure functions of it, so the injected fault sequence
   replays across runs (bench/guard.ml floors the fault count). *)
let e13_seed = 7

let chaos_table ~jobs ~robust ~backend () =
  let title =
    "E13 — seqd under chaos: per-request latency, clean vs fault-injected"
  in
  header title;
  let dir = temp_dir "seq-bench-e13" in
  let sock = Filename.concat dir "seqd.sock" in
  let proxy_sock = Filename.concat dir "chaos.sock" in
  let config =
    {
      Service.Server.socket_path = sock;
      tcp = None;
      cache_dir = Some (Filename.concat dir "cache");
      mem_capacity = 4096;
      jobs;
      max_inflight = max 8 (2 * jobs);
      default_budget = robust.spec;
    }
  in
  let expected (t : C.transformation) : Service.Proto.verdict =
    match (t.C.simple, t.C.advanced) with
    | C.Sound, _ -> Service.Proto.Refines_simple
    | C.Unsound, C.Sound -> Service.Proto.Refines_advanced
    | C.Unsound, C.Unsound -> Service.Proto.Refuted
  in
  (* under a finite budget a verdict may legitimately be Unknown *)
  let budget_limited = not (Engine.Budget.spec_is_unlimited robust.spec) in
  let metrics = Engine.Metrics.create () in
  let n = List.length C.transformations in
  let handle = Service.Server.spawn config in
  (* one warm-up batch so both measured passes answer from the same
     cache tier and differ only in what the transport does to them *)
  Service.Client.with_connection sock (fun c ->
      ignore
        (Service.Client.batch c
           (List.map
              (fun (t : C.transformation) ->
                { Service.Proto.src = t.C.src; tgt = t.C.tgt; values = [];
                  fast_path = true; backend })
              C.transformations)));
  let run_pass label addr policy =
    let wrong = ref 0 in
    let ctrs =
      Service.Client.with_connection ~policy addr (fun c ->
          List.iter
            (fun (t : C.transformation) ->
              let r, ms =
                Engine.Stats.timed (fun () ->
                    Service.Client.check c ~src:t.C.src ~tgt:t.C.tgt ())
              in
              Engine.Metrics.observe metrics label ms;
              let want = expected t in
              let ok =
                r.Service.Proto.verdict = want
                || budget_limited
                   && (match r.Service.Proto.verdict with
                       | Service.Proto.Unknown _ -> true
                       | _ -> false)
              in
              if not ok then begin
                incr wrong;
                incr mismatches;
                Fmt.pr "-- ERROR: %s pass: %s answered %s (expected %s)@."
                  label t.C.name
                  (Service.Proto.verdict_to_string r.Service.Proto.verdict)
                  (Service.Proto.verdict_to_string want)
              end)
            C.transformations;
          Service.Client.counters c)
    in
    (ctrs, !wrong)
  in
  let clean_ctrs, clean_wrong =
    run_pass "clean" sock Service.Client.default_policy
  in
  (* the chaos pass goes through the seeded fault-injecting proxy; the
     request timeout is what turns a dropped frame into a retry *)
  let proxy =
    Service.Chaos.start
      ~listen:(Service.Addr.Unix_sock proxy_sock)
      ~upstream:(Service.Addr.Unix_sock sock)
      (Service.Chaos.schedule e13_seed)
  in
  let chaos_policy =
    {
      Service.Client.resilient_policy with
      attempts = 16;
      request_timeout_ms = Some 500.;
      seed = e13_seed;
    }
  in
  let chaos_ctrs, chaos_wrong = run_pass "chaos" proxy_sock chaos_policy in
  let fc = Service.Chaos.counts proxy in
  Service.Chaos.stop proxy;
  Service.Server.stop handle;
  let faults = Service.Chaos.injected fc in
  Fmt.pr
    "-- chaos seed=%d: frames=%d pass=%d delay=%d drop=%d garble=%d \
     truncate=%d duplicate=%d kill=%d@."
    e13_seed fc.Service.Chaos.frames fc.Service.Chaos.passed
    fc.Service.Chaos.delayed fc.Service.Chaos.dropped fc.Service.Chaos.garbled
    fc.Service.Chaos.truncated fc.Service.Chaos.duplicated
    fc.Service.Chaos.killed;
  Fmt.pr "%-8s %5s %9s %9s %9s %8s %5s %11s %7s %9s@." "pass" "req" "p50 ms"
    "p90 ms" "p99 ms" "retries" "busy" "reconnects" "faults" "verdicts";
  let row name (ctrs : Service.Client.counters) wrong faults =
    let lat =
      match Engine.Metrics.latency metrics name with
      | Some l -> l
      | None -> { Engine.Metrics.count = 0; p50 = 0.; p90 = 0.; p99 = 0. }
    in
    Fmt.pr "%-8s %5d %9.2f %9.2f %9.2f %8d %5d %11d %7d %9s@." name n
      lat.Engine.Metrics.p50 lat.Engine.Metrics.p90 lat.Engine.Metrics.p99
      ctrs.Service.Client.retries ctrs.Service.Client.busy
      ctrs.Service.Client.reconnects faults
      (if wrong = 0 then "ok" else "MISMATCH");
    J.Obj
      [ ("name", J.String name);
        ("requests", J.Int n);
        ("p50_ms", J.Float lat.Engine.Metrics.p50);
        ("p90_ms", J.Float lat.Engine.Metrics.p90);
        ("p99_ms", J.Float lat.Engine.Metrics.p99);
        ("retries", J.Int ctrs.Service.Client.retries);
        ("busy", J.Int ctrs.Service.Client.busy);
        ("reconnects", J.Int ctrs.Service.Client.reconnects);
        ("faults_injected", J.Int faults);
        ("verdicts_ok", J.Bool (wrong = 0)) ]
  in
  let clean_row = row "clean" clean_ctrs clean_wrong 0 in
  let chaos_row = row "chaos" chaos_ctrs chaos_wrong faults in
  add_table "E13" title [ clean_row; chaos_row ]

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* P1–P5: bechamel micro-benchmarks                                     *)
(* ------------------------------------------------------------------ *)

let bechamel_benches () =
  let title = "P1–P5 — Throughput (bechamel, monotonic clock)" in
  header title;
  let open Bechamel in
  let open Toolkit in
  let parse = Parser.stmt_of_string in
  let pair_of name =
    let tr = Option.get (C.find_transformation name) in
    let src = parse tr.C.src and tgt = parse tr.C.tgt in
    (Domain.of_stmts ~values [ src; tgt ], src, tgt)
  in
  let slf_pair = pair_of "slf-across-acq-read" in
  let warw_pair = pair_of "na-write-into-rel" in
  let mp_threads =
    Parser.threads_of_string
      "X.store(na,1); Y.store(rel,1); return 0 ||| \
       a = Y.load(acq); if a == 1 { b = X.load(na) }; return 10*a+b"
  in
  let gen_prog size =
    let st = Random.State.make [| 42; size |] in
    Stmt.seq
      (Gen.gen_linear Gen.default_config st ~size)
      (Stmt.Return (Expr.int 0))
  in
  let p100 = gen_prog 100 in
  let p400 = gen_prog 400 in
  let fig4 =
    parse
      "X.store(na, 2); l = Y.load(acq); \
       if l == 0 { a = X.load(na); Y.store(rel, 1) }; \
       b = X.load(na); return 10*a + b"
  in
  let tests =
    [
      Test.make ~name:"P1 SEQ simple refinement (Ex 2.11)"
        (Staged.stage (fun () ->
             let d, src, tgt = slf_pair in
             ignore (Seq_model.Refine.check d ~src ~tgt)));
      Test.make ~name:"P2 SEQ advanced refinement (Ex 2.9 ii')"
        (Staged.stage (fun () ->
             let d, src, tgt = warw_pair in
             ignore (Seq_model.Advanced.check d ~src ~tgt)));
      Test.make ~name:"P3 PS_na exploration (MP rel-acq)"
        (Staged.stage (fun () -> ignore (M.explore mp_threads)));
      Test.make ~name:"P4 optimizer pipeline, 100-instr program"
        (Staged.stage (fun () -> ignore (Optimizer.Driver.optimize p100)));
      Test.make ~name:"P4 optimizer pipeline, 400-instr program"
        (Staged.stage (fun () -> ignore (Optimizer.Driver.optimize p400)));
      Test.make ~name:"P5 translation validation (Fig 4)"
        (Staged.stage (fun () ->
             ignore (Optimizer.Validate.certified_optimize fig4)));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"bench" ~fmt:"%s %s" tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let jrows = ref [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        jrows :=
          J.Obj [ ("name", J.String name); ("ns_per_run", J.Float est) ]
          :: !jrows;
        Fmt.pr "%-50s %14.0f ns/run@." name est
      | Some _ | None ->
        jrows := J.Obj [ ("name", J.String name) ] :: !jrows;
        Fmt.pr "%-50s (no estimate)@." name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  add_table "P1-P5" title (List.rev !jrows)

(* ------------------------------------------------------------------ *)

let rec parse_opt name = function
  | [] -> None
  | flag :: v :: _ when flag = name -> Some v
  | _ :: rest -> parse_opt name rest

(* A flag that is present but does not parse as its type is a usage
   error, like an out-of-range value (README exit-code table). *)
let usage_error msg =
  Fmt.epr "bench: %s@." msg;
  exit Engine.Cliopts.usage_exit

let parse_int name args =
  match parse_opt name args with
  | None -> None
  | Some s ->
    (match int_of_string_opt s with
     | Some v -> Some v
     | None ->
       usage_error (Printf.sprintf "flag %s: not an integer (got %S)" name s))

let parse_float name args =
  match parse_opt name args with
  | None -> None
  | Some s ->
    (match float_of_string_opt s with
     | Some v -> Some v
     | None ->
       usage_error (Printf.sprintf "flag %s: not a number (got %S)" name s))

let () =
  let args = Array.to_list Sys.argv in
  let full = List.mem "--full" args in
  let no_bechamel = List.mem "--no-bechamel" args in
  let keep_going = List.mem "--keep-going" args in
  let service = List.mem "--service" args in
  let json_path = parse_opt "--json" args in
  let jobs = Option.value (parse_int "--jobs" args) ~default:1 in
  let timeout_ms = parse_float "--timeout-ms" args in
  let max_states = parse_int "--max-states" args in
  let retries = Option.value (parse_int "--retries" args) ~default:0 in
  let inject_faults =
    Option.value (parse_int "--inject-faults" args) ~default:0
  in
  let backend =
    Option.value
      (parse_opt "--backend" args)
      ~default:Service.Proto.default_backend
  in
  (match
     match
       Engine.Cliopts.validate ~retries ~inject_faults ~jobs ~timeout_ms
         ~max_states ()
     with
     | Error _ as e -> e
     | Ok () ->
       Engine.Cliopts.validate_choice ~flag:"--backend"
         ~choices:(Service.Proto.default_backend :: Backends.Registry.names)
         backend
   with
   | Error msg -> usage_error msg
   | Ok () -> ());
  let robust =
    {
      spec = Engine.Budget.spec ?timeout_ms ?max_states ();
      retries;
      inject_faults;
      inject_seed = Option.value (parse_int "--inject-seed" args) ~default:0;
    }
  in
  let (), total_ms =
    Engine.Stats.timed @@ fun () ->
    let pool = Engine.Pool.create ~jobs () in
    transformation_matrix ~pool ~robust ();
    optimizer_table ();
    litmus_table ~pool ~robust ();
    backend_grid_table ~pool ~robust ();
    adequacy_table ~pool ~full ~robust ();
    catchfire_table ();
    drf_table ();
    determinism_table ();
    fastpath_table ();
    certabs_table ();
    fuzz_table ~pool ~robust ();
    guided_fuzz_table ~pool ~robust ();
    enumcore_table ();
    Engine.Pool.shutdown pool;
    if service then begin
      service_table ~jobs ~robust ~backend ();
      chaos_table ~jobs ~robust ~backend ()
    end;
    if not no_bechamel then bechamel_benches ()
  in
  (match json_path with
   | None -> ()
   | Some path ->
     let doc =
       J.Obj
         [ ("schema", J.String "seq-bench/7");
           ("jobs", J.Int jobs);
           ("full", J.Bool full);
           ("total_ms", J.Float total_ms);
           ("tables", J.List (List.rev !json_tables));
           ( "summary",
             J.Obj
               [ ("mismatches", J.Int !mismatches);
                 ("unknowns", J.Int !unknowns) ] ) ]
     in
     Out_channel.with_open_text path (fun oc -> J.to_channel oc doc);
     Fmt.pr "-- json record written to %s@." path);
  Fmt.pr "@.done.@.";
  if !mismatches > 0 then exit 3
  else if !unknowns > 0 && not keep_going then exit 4
