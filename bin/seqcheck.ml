(** seqcheck — decide SEQ behavioral refinement between two programs.

    Usage: seqcheck SRC.wm TGT.wm — checks whether TGT (weakly)
    behaviorally refines SRC over the finite domain (Def 2.4 / Def 3.3),
    through {!Optimizer.Validate.run} with the static tier off: a local
    check always plays the games.  Exit code 0: refines; 3: does not; 4:
    undecided (budget ran out, or over 16 non-atomic locations).

    [--corpus] instead re-checks the whole built-in transformation corpus
    against its expected verdicts, swept in parallel ([--jobs N],
    engine-backed; see docs/ENGINE.md).  Exit 0: all verdicts match.

    [--timeout-ms]/[--max-states] bound each check; an exhausted budget
    yields UNKNOWN(reason) instead of an answer (docs/ROBUSTNESS.md).
    Corpus sweeps under a budget never abort: failed rows are reported as
    UNKNOWN and exit 4 unless [--keep-going].

    Mixed atomic/non-atomic access {e within} a program is detected
    statically up front (SEQ's well-formedness precondition) and reported
    as a diagnostic citing both conflicting instructions; the run-time
    [Mixed_access] exception remains only as a backstop.  A location
    whose mode class differs only between SRC and TGT is accepted with a
    note — the refinement check itself refutes such pairs (the target
    emits labels the source cannot).  [--lint] additionally prints
    the full static race/UB diagnostics for both programs (see seqlint).

    [--server ADDR] turns seqcheck into a thin client of a running seqd
    (ADDR is a Unix socket path or [tcp:HOST:PORT]): single checks are
    sent as one request, [--corpus] as one parallel batch over one
    connection, and each answer reports its serving tier
    ([computed]/[mem]/[disk]) next to the proof provenance.  In server
    mode [--retries N] bounds re-sends on connection failures and [Busy]
    answers (verdict requests are pure, so re-sending is safe); if the
    daemon still cannot be reached — it died mid-batch, say — the check
    is undecided: exit 4 with a diagnostic, never an uncaught protocol
    error.  Other exit codes are unchanged; out-of-range flags exit 2
    (see README). *)

open Cmdliner
open Lang

let read path = In_channel.with_open_text path In_channel.input_all

let budget_spec timeout_ms max_states =
  Engine.Budget.spec ?timeout_ms ?max_states ()

(* ---------------- client mode (--server ADDR) ---------------- *)

let exit_of_verdict ~keep_going : Service.Proto.verdict -> int = function
  | Refines_simple | Refines_advanced -> 0
  | Refuted -> 3
  | Unknown _ -> if keep_going then 0 else 4

(* Expected protocol verdict of a corpus row: [Refines_simple] when both
   notions hold, [Refines_advanced] when only Def 3.3 does, [Refuted]
   otherwise ((Sound, Unsound) cannot occur — simple implies advanced). *)
let expected_verdict (t : Litmus.Catalog.transformation) :
    Service.Proto.verdict =
  match t.simple, t.advanced with
  | Sound, _ -> Refines_simple
  | Unsound, Sound -> Refines_advanced
  | Unsound, Unsound -> Refuted

let corpus_summary (results : Service.Proto.check_result list) =
  let count p = List.length (List.filter p results) in
  let computed =
    count (fun r -> r.Service.Proto.tier = Service.Proto.Computed)
  in
  let of_origin o (r : Service.Proto.check_result) =
    r.tier = Service.Proto.Computed && r.origin = Some o
  in
  Fmt.pr
    "-- cache: computed=%d (static=%d, static-abs=%d, enumerated=%d) mem=%d \
     disk=%d unknown=%d@."
    computed
    (count (of_origin Service.Proto.Static))
    (count (of_origin Service.Proto.Static_abs))
    (count (of_origin Service.Proto.Enumerated))
    (count (fun r -> r.Service.Proto.tier = Service.Proto.Mem))
    (count (fun r -> r.Service.Proto.tier = Service.Proto.Disk))
    (count (fun r ->
         match r.Service.Proto.verdict with
         | Service.Proto.Unknown _ -> true
         | _ -> false))

let run_client addr backend src_path tgt_path values corpus timeout_ms
    max_states keep_going retries =
  let budget = { Service.Proto.timeout_ms; max_states } in
  let policy =
    { Service.Client.resilient_policy with attempts = retries + 1 }
  in
  Service.Client.with_connection ~policy addr (fun c ->
      if corpus then begin
        let entries = Litmus.Catalog.transformations in
        let checks =
          List.map
            (fun (t : Litmus.Catalog.transformation) ->
              { Service.Proto.src = t.src; tgt = t.tgt; values;
                fast_path = true; backend })
            entries
        in
        (* one connection, one batch: the server sweeps it in parallel *)
        let results, ms =
          Engine.Stats.timed (fun () -> Service.Client.batch ~budget c checks)
        in
        let rows = List.combine entries results in
        let mismatches = ref 0 and unknowns = ref 0 in
        List.iter
          (fun ((t : Litmus.Catalog.transformation),
                (r : Service.Proto.check_result)) ->
            let status =
              match r.verdict with
              | Service.Proto.Unknown _ ->
                incr unknowns;
                "unknown"
              | v when v = expected_verdict t -> "ok"
              | _ ->
                incr mismatches;
                "MISMATCH"
            in
            Fmt.pr "%-28s %-44s %s@." t.name
              (Service.Proto.check_result_to_string r)
              status)
          rows;
        Fmt.pr "-- %d checks in %.1f ms via %s@." (List.length rows) ms addr;
        corpus_summary results;
        if !mismatches > 0 then 3
        else if !unknowns > 0 && not keep_going then 4
        else 0
      end
      else
        match src_path, tgt_path with
        | None, _ | _, None ->
          Fmt.epr "error: SRC and TGT are required (or use --corpus)@.";
          1
        | Some src_path, Some tgt_path ->
          let r =
            Service.Client.check ~values ~backend ~budget c
              ~src:(read src_path) ~tgt:(read tgt_path) ()
          in
          Fmt.pr "%s@." (Service.Proto.check_result_to_string r);
          exit_of_verdict ~keep_going r.Service.Proto.verdict)

let run_corpus jobs spec retries keep_going =
  let rows, ms =
    Engine.Stats.timed (fun () ->
        Litmus.Matrix.e12_rows ~jobs ~budget:spec ~retries ())
  in
  Fmt.pr "%s" (Litmus.Matrix.render_e12 ~stats:true rows);
  Fmt.pr "-- swept in %.1f ms (jobs=%d)@." ms jobs;
  let mismatch =
    List.exists
      (fun (_, (o : _ Engine.Sweep.outcome)) ->
        match o.result with
        | Ok r -> not (Litmus.Matrix.e12_ok r)
        | Error _ -> false)
      rows
  in
  let unknown =
    List.exists (fun (_, o) -> not (Engine.Sweep.outcome_ok o)) rows
  in
  if mismatch then 3 else if unknown && not keep_going then 4 else 0

exception Static_mixed

(* SEQ's input checks before a local check; true iff [lint] found
   error-severity diagnostics.

   Static well-formedness: mixing within a single program is what
   [Config.check_no_mixing] would reject at run time — catch it up front
   with sites.  A location whose mode class differs only {e between} SRC
   and TGT (e.g. an na→rlx strengthening) is legal input: the domain
   classifies it non-atomic and the refinement check refutes the pair,
   so it is only worth a note.

   Lint: same rules, same severities, same exit contract as seqlint —
   error-severity diagnostics force exit 3 even when the refinement
   holds, so `seqcheck --lint` and `seqlint` never disagree on a program
   pair (CLI-tested). *)
let seq_prechecks ~lint src tgt =
  (match Analysis.Modes.per_thread_conflicts [ src; tgt ] with
   | [] -> ()
   | conflicts ->
     List.iter
       (fun c ->
         Fmt.epr "error: %a@." (Analysis.Modes.pp_conflict ~src:[ src; tgt ]) c)
       conflicts;
     Fmt.epr "(thread 0 = SRC, thread 1 = TGT; SEQ rejects mixed access)@.";
     raise Static_mixed);
  List.iter
    (fun (c : Analysis.Modes.conflict) ->
      Fmt.epr
        "note: %s changes access mode between SRC and TGT (treated as \
         non-atomic)@."
        (Loc.name c.Analysis.Modes.cloc))
    (Analysis.Modes.combined_conflicts [ src; tgt ]);
  lint
  && List.fold_left
       (fun acc (label, s) ->
         match Optimizer.Lint.lint [ s ] with
         | [] ->
           Fmt.epr "lint (%s): clean@." label;
           acc
         | diags ->
           Fmt.epr "lint (%s):@." label;
           List.iter
             (fun d -> Fmt.epr "  %a@." (Optimizer.Lint.pp_diag ~threads:1) d)
             diags;
           acc || Optimizer.Lint.has_errors diags)
       false
       [ ("src", src); ("tgt", tgt) ]

let run src_path tgt_path values advanced_only corpus jobs timeout_ms
    max_states keep_going retries lint backend server =
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  match
    let* () =
      Engine.Cliopts.validate ~retries ~jobs ~timeout_ms ~max_states ()
    in
    Engine.Cliopts.validate_choice ~flag:"--backend"
      ~choices:(Service.Proto.default_backend :: Backends.Registry.names)
      backend
  with
  | Error msg ->
    Fmt.epr "seqcheck: %s@." msg;
    Engine.Cliopts.usage_exit
  | Ok () ->
  try
    match server with
    | Some addr -> (
      (* a daemon that dies mid-batch (or mid-handshake) leaves the
         check undecided, not erroneous: exit 4 with a diagnostic, never
         an uncaught Unix_error/Proto.Error escaping the sweep *)
      try
        run_client addr backend src_path tgt_path values corpus timeout_ms
          max_states keep_going retries
      with
      | Unix.Unix_error (e, _, arg) ->
        Fmt.epr
          "seqcheck: daemon at %s unreachable or died mid-request (%s%s)@."
          addr
          (Unix.error_message e)
          (if arg = "" then "" else ": " ^ arg);
        Fmt.epr "UNKNOWN(daemon lost after %d attempt(s))@." (retries + 1);
        4
      | Service.Proto.Error msg ->
        Fmt.epr "seqcheck: protocol failure talking to %s: %s@." addr msg;
        Fmt.epr "UNKNOWN(daemon lost after %d attempt(s))@." (retries + 1);
        4
      | Service.Client.Timeout ->
        Fmt.epr "seqcheck: request to %s timed out@." addr;
        Fmt.epr "UNKNOWN(daemon lost after %d attempt(s))@." (retries + 1);
        4)
    | None ->
    let spec = budget_spec timeout_ms max_states in
    if corpus then run_corpus jobs spec retries keep_going
    else
    match src_path, tgt_path with
    | None, _ | _, None ->
      Fmt.epr "error: SRC and TGT are required (or use --corpus)@.";
      1
    | Some src_path, Some tgt_path ->
    let src = Parser.stmt_of_string (read src_path) in
    let tgt = Parser.stmt_of_string (read tgt_path) in
    (* any other backend means behavior-set inclusion under the named
       machine, with mixed access tolerated (as by PS_na) *)
    let seq = backend = Service.Proto.default_backend in
    let lint_errors = seq && seq_prechecks ~lint src tgt in
    let values = List.map (fun n -> Value.Int n) values in
    let d = Domain.of_stmts ~values [ src; tgt ] in
    if seq then Fmt.epr "domain: %a@." Domain.pp d;
    let undecided reason =
      Fmt.pr "UNKNOWN(%s)@." reason;
      if keep_going then 0 else 4
    in
    (* local mode enumerates ([fast_path:false]): a static certificate
       must not overrule the games on a pair they refute *)
    match
      Optimizer.Validate.run ~values ~backend
        ~notion:(if advanced_only then Advanced_only else Both)
        ~fast_path:false ~budget:(Engine.Budget.start spec) ~src ~tgt ()
    with
    | exception Engine.Budget.Exhausted r ->
      undecided (Engine.Budget.reason_to_string r)
    | { answer = Undecided reason; _ } -> undecided reason
    | { answer = (Refines_simple | Refines_advanced) as a; _ } ->
      Fmt.pr "REFINES (%s)@."
        (if not seq then "behavior inclusion under " ^ backend
         else if a = Refines_simple then "simple notion, Def 2.4"
         else "advanced notion, Def 3.3");
      if lint_errors then begin
        Fmt.pr "(lint errors: exit 3, matching seqlint)@.";
        3
      end
      else 0
    | { answer = Refuted; _ } when not seq ->
      Fmt.pr "DOES NOT REFINE (under %s)@." backend;
      3
    | { answer = Refuted; _ } ->
      Fmt.pr "DOES NOT REFINE@.";
      let roots =
        Seq_model.Refine.initial_pairs d ~src:(Prog.init src)
          ~tgt:(Prog.init tgt)
      in
      (match Seq_model.Refine.find_counterexample d roots with
       | Some cex -> Fmt.pr "%a@." Seq_model.Refine.pp_counterexample cex
       | None ->
         Fmt.pr
           "(no simple-notion counterexample: the failure is specific to \
            the advanced notion)@.");
      3
  with
  | Parser.Error msg ->
    Fmt.epr "parse error: %s@." msg;
    1
  | Static_mixed -> 1
  | Seq_model.Config.Mixed_access x ->
    (* backstop: the static pre-check above should have caught this *)
    Fmt.epr "error: location %s is accessed both atomically and non-atomically@."
      (Loc.name x);
    1
  | Unix.Unix_error (e, _, arg) ->
    Fmt.epr "error: server %s: %s@." arg (Unix.error_message e);
    1
  | Service.Proto.Error msg ->
    Fmt.epr "protocol error: %s@." msg;
    1
  | Failure msg ->
    Fmt.epr "error: %s@." msg;
    1

let src = Arg.(value & pos 0 (some file) None & info [] ~docv:"SRC")
let tgt = Arg.(value & pos 1 (some file) None & info [] ~docv:"TGT")

let values =
  Arg.(value & opt (list int) [ 0; 1; 2 ] & info [ "values" ] ~docv:"INTS"
         ~doc:"Defined values of the finite checking domain.")

let advanced_only =
  Arg.(value & flag & info [ "advanced-only" ]
         ~doc:"Skip the simple-notion check.")

let corpus =
  Arg.(value & flag & info [ "corpus" ]
         ~doc:"Re-check the built-in transformation corpus (parallel).")

let jobs =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ]
         ~doc:"Worker domains for the --corpus sweep.")

let timeout_ms =
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS"
         ~doc:"Wall-clock budget per check; exhaustion yields UNKNOWN.")

let max_states =
  Arg.(value & opt (some int) None & info [ "max-states" ] ~docv:"N"
         ~doc:"Simulation-pair budget per check; exhaustion yields UNKNOWN.")

let keep_going =
  Arg.(value & flag & info [ "keep-going" ]
         ~doc:"Exit 0 even when some results are UNKNOWN (budget ran out).")

let retries =
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
         ~doc:"Retries per corpus task on transient failures (deadline); \
               with --server, re-sends per request on connection failures \
               and Busy answers (seeded backoff).")

let lint =
  Arg.(value & flag & info [ "lint" ]
         ~doc:"Print static race/UB diagnostics for both programs before \
               checking (see seqlint).")

let backend =
  Arg.(value & opt string "seq" & info [ "backend" ] ~docv:"NAME"
         ~doc:"Memory model the check runs under: seq (the default \
               SEQ sequential refinement) or a hardware backend (sc, \
               catchfire, tso, armv8, ps) meaning behavior-set \
               inclusion under that machine.")

let server =
  Arg.(value & opt (some string) None & info [ "server" ] ~docv:"ADDR"
         ~doc:"Send the check(s) to a running seqd at this address (a \
               Unix socket path or tcp:HOST:PORT) instead of checking \
               locally; --corpus goes over one connection as one \
               parallel batch.")

let cmd =
  Cmd.v
    (Cmd.info "seqcheck" ~version:"1.0"
       ~doc:"SEQ behavioral-refinement checker (PLDI 2022)")
    Term.(const run $ src $ tgt $ values $ advanced_only $ corpus $ jobs
          $ timeout_ms $ max_states $ keep_going $ retries $ lint $ backend
          $ server)

let () = exit (Cmd.eval' cmd)
