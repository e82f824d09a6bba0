(** Parallel sweeps over a {!Pool} with a sequential contract (see
    sweep.mli).

    Each task index gets one cell; cells are written by exactly one
    domain each, and the pool's mutex hand-offs publish them to the
    orchestrator before [Pool.run_job] returns.  Cancellation is a
    monotonically decreasing atomic index bound: an exception at index
    [i] stops tasks [> i] from starting, while tasks [< i] always run —
    which is exactly what makes the lowest-index exception the one
    re-raised, whatever the scheduling. *)

type 'b cell =
  | Empty  (* cancelled before starting *)
  | Value of 'b
  | Raised of exn * Printexc.raw_backtrace

let cancel_down bound i =
  let rec go () =
    let c = Atomic.get bound in
    if i < c && not (Atomic.compare_and_set bound c i) then go ()
  in
  go ()

let with_pool_opt ?pool ?jobs f =
  match pool with Some p -> f p | None -> Pool.with_pool ?jobs f

(* Core sweep: fill one cell per task, honouring cancellation. *)
let run_cells ?pool ?jobs ?chunk ~init ~f tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let cells = Array.make n Empty in
  if n > 0 then
    with_pool_opt ?pool ?jobs (fun pool ->
        let envs = Array.make (Pool.size pool) None in
        let bound = Atomic.make max_int in
        let run ~wid i =
          if i < Atomic.get bound then begin
            let env =
              match envs.(wid) with
              | Some e -> e
              | None ->
                let e = init () in
                envs.(wid) <- Some e;
                e
            in
            match f env arr.(i) with
            | r -> cells.(i) <- Value r
            | exception e ->
              cells.(i) <- Raised (e, Printexc.get_raw_backtrace ());
              cancel_down bound (i + 1)
          end
        in
        Pool.run_job pool ?chunk ~n run);
  cells

(* Deterministic collection: re-raise the lowest-index exception, else
   all cells are values. *)
let collect cells =
  let exn = ref None in
  for i = Array.length cells - 1 downto 0 do
    match cells.(i) with
    | Raised (e, bt) -> exn := Some (e, bt)
    | Value _ | Empty -> ()
  done;
  match !exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
    Array.to_list
      (Array.map
         (function
           | Value v -> v
           | Empty | Raised _ -> assert false (* no exception, no cancel *))
         cells)

let run_with ?pool ?jobs ?chunk ~init ~f tasks =
  collect (run_cells ?pool ?jobs ?chunk ~init ~f tasks)

let run ?pool ?jobs ?chunk ~f tasks =
  run_with ?pool ?jobs ?chunk ~init:(fun () -> ()) ~f:(fun () x -> f x) tasks

(* ------------------------------------------------------------------ *)
(* Supervised sweeps: budgeted, fault-tolerant, never raising           *)
(* ------------------------------------------------------------------ *)

type 'b outcome = {
  result : ('b, Verdict.reason) Stdlib.result;
  attempts : int;
  quarantined : bool;
  wall_ms : float;
}

let outcome_ok o = Result.is_ok o.result

(* One supervised task: fresh budget per attempt (retries restart the
   deadline), fault injection at attempt start, every exception trapped.
   Transient failures retry with doubling capped backoff; a trapped
   non-transient exception quarantines the task — recorded in the
   outcome, never retried.  The outcome is a pure function of
   (task, index, plan, spec), so the parallel=sequential contract of the
   surrounding sweep is preserved. *)
let supervise ~budget ~retries ~backoff_ms ~max_backoff_ms ~faults ~f env i x =
  let rec go attempt backoff =
    let b = Budget.start budget in
    match
      Faults.apply faults ~budget:b ~index:i ~attempt;
      f env ~budget:b x
    with
    | r -> { result = Ok r; attempts = attempt; quarantined = false; wall_ms = 0. }
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      let reason = Verdict.reason_of_exn e bt in
      if Verdict.transient reason && attempt <= retries then begin
        if backoff > 0. then Unix.sleepf (backoff /. 1000.);
        go (attempt + 1) (Float.min max_backoff_ms (backoff *. 2.))
      end
      else
        {
          result = Error reason;
          attempts = attempt;
          quarantined = (match reason with Verdict.Trapped _ -> true | Verdict.Exhausted _ -> false);
          wall_ms = 0.;
        }
  in
  let o, ms = Stats.timed (fun () -> go 1 backoff_ms) in
  { o with wall_ms = ms }

let run_verdict_with ?pool ?jobs ?chunk ?(budget = Budget.spec_unlimited)
    ?(retries = 0) ?(backoff_ms = 1.) ?(max_backoff_ms = 100.)
    ?(faults = Faults.none) ~init ~f tasks =
  run_with ?pool ?jobs ?chunk ~init
    ~f:(fun env (i, x) ->
      supervise ~budget ~retries ~backoff_ms ~max_backoff_ms ~faults ~f env i x)
    (List.mapi (fun i x -> (i, x)) tasks)

let run_verdict ?pool ?jobs ?chunk ?budget ?retries ?backoff_ms ?max_backoff_ms
    ?faults ~f tasks =
  run_verdict_with ?pool ?jobs ?chunk ?budget ?retries ?backoff_ms
    ?max_backoff_ms ?faults
    ~init:(fun () -> ())
    ~f:(fun () ~budget x -> f ~budget x)
    tasks
