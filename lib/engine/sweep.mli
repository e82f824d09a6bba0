(** Parallel sweeps with a sequential contract.

    Every function here returns results {e in input order} and behaves
    observationally like its sequential counterpart, whatever [jobs] is:

    - results are collected by task index, never by completion order;
    - if several tasks raise, the exception of the {e lowest-index}
      raising task is re-raised (with its backtrace), as a sequential
      left-to-right run would have done; tasks beyond the lowest raising
      index so far are cancelled, tasks before it always run.

    The determinism contract requires [f] to be observationally pure:
    given the same task it must return the same value regardless of
    scheduling.  Per-domain state handed out by {!run_with} may make
    [f] {e faster} (warm memo tables) but must never change its result
    — see docs/ENGINE.md.

    [?pool] reuses an existing {!Pool.t} (its size wins); otherwise a
    temporary pool of [?jobs] slots is created and shut down around the
    sweep. *)

(** [run ?jobs ~f tasks] = [List.map f tasks], swept across domains. *)
val run :
  ?pool:Pool.t -> ?jobs:int -> ?chunk:int -> f:('a -> 'b) -> 'a list -> 'b list

(** [run_with ~init ~f tasks]: like {!run}, but each worker domain
    lazily creates one ['env] with [init] and passes it to every task it
    executes (fresh envs per call, never shared across domains) — the
    hook for per-domain memo/interner tables. *)
val run_with :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?chunk:int ->
  init:(unit -> 'env) ->
  f:('env -> 'a -> 'b) ->
  'a list ->
  'b list

(** The outcome of one supervised task: the task's result, or the
    normalized reason it could not be computed.  [attempts] counts
    executions (1 = first try succeeded); [quarantined] records that the
    task raised non-transiently and was excluded from the retry path.
    [wall_ms] includes retry backoff. *)
type 'b outcome = {
  result : ('b, Verdict.reason) Stdlib.result;
  attempts : int;
  quarantined : bool;
  wall_ms : float;
}

val outcome_ok : 'b outcome -> bool

(** [run_verdict ~f tasks]: the fault-tolerant sweep.  Never raises;
    returns one outcome per task, in input order, preserving the
    parallel=sequential determinism contract (each outcome is a pure
    function of the task, its index, the budget [spec] and the fault
    plan — never of scheduling).

    Per task attempt: a fresh budget is started from [budget] (so each
    retry gets the full [timeout_ms] again), [faults] is applied (see
    {!Faults.apply}), then [f] runs with the budget.  Budget exhaustion
    and every exception ([Stack_overflow]/[Out_of_memory] included) are
    trapped into [Error] outcomes.  Failures whose reason is transient
    ({!Verdict.transient}) are retried up to [retries] extra times with
    doubling backoff ([backoff_ms], capped at [max_backoff_ms]); a task
    that raised non-transiently is quarantined: recorded and skipped on
    retry, leaving every other task's result intact. *)
val run_verdict :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?chunk:int ->
  ?budget:Budget.spec ->
  ?retries:int ->
  ?backoff_ms:float ->
  ?max_backoff_ms:float ->
  ?faults:Faults.plan ->
  f:(budget:Budget.t -> 'a -> 'b) ->
  'a list ->
  'b outcome list

(** {!run_verdict} with a per-domain environment, as {!run_with}. *)
val run_verdict_with :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?chunk:int ->
  ?budget:Budget.spec ->
  ?retries:int ->
  ?backoff_ms:float ->
  ?max_backoff_ms:float ->
  ?faults:Faults.plan ->
  init:(unit -> 'env) ->
  f:('env -> budget:Budget.t -> 'a -> 'b) ->
  'a list ->
  'b outcome list
