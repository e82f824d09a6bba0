(** litmus_run — explore all PS_na behaviors of a concurrent program.

    The input is a WHILE program with threads separated by [|||]; the tool
    prints the exhaustively explored behavior set (bounded promises), and
    optionally the SC / catch-fire baselines and the DRF report.
    [--all] instead sweeps the whole built-in catalog in parallel
    ([--jobs N], engine-backed; see docs/ENGINE.md).

    [--timeout-ms] bounds each exploration with a cooperative wall-clock
    budget (the existing [--max-states] remains the explorer's truncation
    bound); an exhausted budget yields an UNKNOWN(reason) row instead of
    an answer.  [--inject-faults N] (with [--inject-seed S]) makes N
    deterministically chosen sweep tasks raise, exercising the supervised
    sweep's quarantine path (docs/ROBUSTNESS.md).  Exit 0: clean; 3:
    truncated; 4: some rows UNKNOWN (suppressed by [--keep-going]). *)

open Cmdliner
open Lang

let read_input = function
  | None | Some "-" -> In_channel.input_all In_channel.stdin
  | Some path -> In_channel.with_open_text path In_channel.input_all

(* The rows of a sweep's successful tasks. *)
let oks rows =
  List.filter_map
    (fun (_, (o : _ Engine.Sweep.outcome)) -> Result.to_option o.result)
    rows

let any_unknown rows =
  List.exists (fun (_, o) -> not (Engine.Sweep.outcome_ok o)) rows

(* The E15 differential grid: every grid litmus program under every
   backend, plus the pass-soundness grid.  Tables are rendered with
   [stats:false] so stdout is byte-identical across runs and [--jobs]
   settings (the CI determinism step diffs them); timing goes to
   stderr. *)
let run_grid jobs spec retries faults keep_going =
  let rows, ms =
    Engine.Stats.timed (fun () ->
        Litmus.Matrix.e15_rows ~jobs ~budget:spec ~retries ~faults ())
  in
  let prows, pms =
    Engine.Stats.timed (fun () ->
        Litmus.Matrix.e15p_rows ~jobs ~budget:spec ~retries ~faults ())
  in
  Fmt.epr "-- grid swept in %.1f ms, pass grid in %.1f ms (jobs=%d)@." ms pms
    jobs;
  Fmt.pr "%s\n%s" (Litmus.Matrix.render_e15 rows)
    (Litmus.Matrix.render_e15p prows);
  let ok_rows = oks rows in
  let truncated =
    List.exists (fun (r : Litmus.Matrix.e15_row) -> r.truncated) ok_rows
    || List.exists (fun (r : Litmus.Matrix.e15p_row) -> r.truncated) (oks prows)
  in
  let mismatch = List.exists (fun r -> not (Litmus.Matrix.e15_ok r)) ok_rows in
  if mismatch || truncated then 3
  else if (any_unknown rows || any_unknown prows) && not keep_going then 4
  else 0

(* The E4 catalog sweep.  As for the grid, stdout carries the table
   rendered with [stats:false], byte-identical across runs and [--jobs]
   settings; the per-row and total timings go to stderr. *)
let run_all params jobs spec retries faults keep_going =
  let rows, ms =
    Engine.Stats.timed (fun () ->
        Litmus.Matrix.e4_rows ~jobs ~params ~budget:spec ~retries ~faults ())
  in
  Fmt.pr "%s" (Litmus.Matrix.render_e4 rows);
  List.iter
    (fun ((c : Litmus.Catalog.concurrent), (o : _ Engine.Sweep.outcome)) ->
      Fmt.epr "-- %s in %.1f ms@." c.cname o.wall_ms)
    rows;
  Fmt.epr "-- swept in %.1f ms (jobs=%d)@." ms jobs;
  if List.exists (fun (r : Litmus.Matrix.e4_row) -> r.truncated) (oks rows)
  then 3
  else if any_unknown rows && not keep_going then 4
  else 0

let run input promises batch max_states compare_baselines named all grid
    backend jobs timeout_ms keep_going retries inject_faults inject_seed =
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  match
    let* () =
      Engine.Cliopts.validate ~retries ~inject_faults ~jobs ~timeout_ms
        ~max_states:(Some max_states) ()
    in
    Engine.Cliopts.validate_choice ~flag:"--backend"
      ~choices:Backends.Registry.names backend
  with
  | Error msg ->
    Fmt.epr "litmus_run: %s@." msg;
    Engine.Cliopts.usage_exit
  | Ok () ->
  try
    let params =
      {
        Promising.Thread.default_params with
        promise_budget = promises;
        batch_bound = batch;
        max_states;
      }
    in
    let spec = Engine.Budget.spec ?timeout_ms () in
    let faults =
      if inject_faults = 0 then Engine.Faults.none
      else
        Engine.Faults.seeded ~seed:inject_seed
          ~tasks:(List.length Litmus.Catalog.concurrent_programs)
          ~faulty:inject_faults ()
    in
    if grid then run_grid jobs spec retries faults keep_going
    else if all then run_all params jobs spec retries faults keep_going
    else
    let text =
      match named with
      | Some n ->
        (match
           List.find_opt
             (fun c -> c.Litmus.Catalog.cname = n)
             Litmus.Catalog.concurrent_programs
         with
         | Some c -> c.Litmus.Catalog.threads
         | None ->
           failwith
             (Printf.sprintf "unknown litmus %S; available: %s" n
                (String.concat ", "
                   (List.map
                      (fun c -> c.Litmus.Catalog.cname)
                      Litmus.Catalog.concurrent_programs))))
      | None -> read_input input
    in
    let progs = Parser.threads_of_string text in
    (* static mixed-access check: PS_na tolerates mixing, so only warn —
       but warn up front, citing both instructions, instead of relying on
       any run-time backstop *)
    List.iter
      (fun c ->
        Fmt.epr
          "warning: mixed access (PS_na tolerates it; SEQ would reject): %a@."
          (Analysis.Modes.pp_conflict ~src:progs) c)
      (Analysis.Modes.combined_conflicts progs);
    let budget = Engine.Budget.start spec in
    (if backend = "ps" then
       match Promising.Machine.explore ~params ~budget progs with
       | exception Engine.Budget.Exhausted reason ->
         Fmt.pr "UNKNOWN(%s)@." (Engine.Budget.reason_to_string reason);
         raise Exit
       | r ->
         Fmt.pr "PS_na behaviors (%d states%s%s):@.  %a@."
           r.Promising.Machine.states
           (if r.Promising.Machine.truncated then ", TRUNCATED" else "")
           (if r.Promising.Machine.races then ", races observed" else "")
           Promising.Machine.pp_behaviors r.Promising.Machine.behaviors
     else
       let (module M : Backends.Backend.MACHINE) =
         Option.get (Backends.Registry.find backend)
       in
       match M.explore ~max_states ~budget progs with
       | exception Engine.Budget.Exhausted reason ->
         Fmt.pr "UNKNOWN(%s)@." (Engine.Budget.reason_to_string reason);
         raise Exit
       | r ->
         Fmt.pr "%s behaviors (%d states%s%s):@.  %a@." M.name
           r.Backends.Backend.states
           (if r.Backends.Backend.truncated then ", TRUNCATED" else "")
           (if r.Backends.Backend.races then ", races observed" else "")
           Promising.Machine.pp_behaviors r.Backends.Backend.behaviors);
    if compare_baselines then begin
      let sc = Baselines.Sc.explore progs in
      Fmt.pr "SC behaviors (%d states%s):@.  %a@." sc.Baselines.Sc.states
        (if sc.Baselines.Sc.races then ", races" else "")
        Promising.Machine.pp_behaviors sc.Baselines.Sc.behaviors;
      let cf = Baselines.Catchfire.explore progs in
      Fmt.pr "catch-fire: %s@."
        (if cf.Baselines.Catchfire.catches_fire then "UB (data race)"
         else "race-free")
    end;
    0
  with
  | Exit -> if keep_going then 0 else 4
  | Parser.Error msg | Failure msg ->
    Fmt.epr "error: %s@." msg;
    1

let input = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE")

let promises =
  Arg.(value & opt int 1 & info [ "promises" ] ~doc:"Promise-step budget per thread.")

let batch =
  Arg.(value & opt int 1 & info [ "batch" ]
         ~doc:"Extra-message budget per non-atomic write.")

let max_states =
  Arg.(value & opt int 200_000 & info [ "max-states" ] ~doc:"State budget.")

let compare_baselines =
  Arg.(value & flag & info [ "baselines" ]
         ~doc:"Also print SC and catch-fire baselines.")

let named =
  Arg.(value & opt (some string) None & info [ "name" ]
         ~doc:"Run a named litmus test from the built-in catalog.")

let all =
  Arg.(value & flag & info [ "all" ]
         ~doc:"Sweep every litmus test of the built-in catalog (parallel).")

let grid =
  Arg.(value & flag & info [ "grid" ]
         ~doc:"Print the E15 N-model differential grid (litmus rows under \
               every backend, plus the pass-soundness grid).")

let backend =
  Arg.(value & opt string "ps" & info [ "backend" ] ~docv:"NAME"
         ~doc:"Memory-model backend for single-program exploration \
               (sc, catchfire, tso, armv8, ps).")

let jobs =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ]
         ~doc:"Worker domains for the --all/--grid sweeps.")

let timeout_ms =
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS"
         ~doc:"Wall-clock budget per exploration; exhaustion yields UNKNOWN.")

let keep_going =
  Arg.(value & flag & info [ "keep-going" ]
         ~doc:"Exit 0 even when some rows are UNKNOWN.")

let retries =
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
         ~doc:"Retries per --all task on transient failures (deadline).")

let inject_faults =
  Arg.(value & opt int 0 & info [ "inject-faults" ] ~docv:"N"
         ~doc:"Deterministically make N --all tasks raise (robustness \
               drills; see docs/ROBUSTNESS.md).")

let inject_seed =
  Arg.(value & opt int 0 & info [ "inject-seed" ] ~docv:"S"
         ~doc:"Seed selecting which tasks --inject-faults hits.")

let cmd =
  Cmd.v
    (Cmd.info "litmus_run" ~version:"1.0"
       ~doc:"PS_na litmus-test explorer (PLDI 2022)")
    Term.(const run $ input $ promises $ batch $ max_states $ compare_baselines
          $ named $ all $ grid $ backend $ jobs $ timeout_ms $ keep_going
          $ retries $ inject_faults $ inject_seed)

let () = exit (Cmd.eval' cmd)
