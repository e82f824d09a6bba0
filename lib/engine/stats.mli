(** Per-task timing/stats records for parallel sweeps.

    [wall_ms] is the only field that may legitimately differ between
    runs (and between [--jobs] settings); [states] and [memo_hits] are
    deterministic as long as the task's memo tables are task-local (see
    docs/ENGINE.md for the determinism contract). *)

type task = {
  wall_ms : float;  (** wall-clock time of the task, milliseconds *)
  states : int;  (** states / simulation pairs explored *)
  memo_hits : int;  (** memoization-table hits *)
}

val zero : task
val add : task -> task -> task
val sum : task list -> task

(** [timed f] runs [f ()] and returns its result with the elapsed
    milliseconds on the monotonic {!Clock}. *)
val timed : (unit -> 'a) -> 'a * float

val pp : Format.formatter -> task -> unit

(** Static fast-path counters for validation sweeps: how many checks were
    discharged by a pipeline-replay certificate ([static_hits]), by the
    abstract-interpretation certifier ([static_abs_hits]), or by
    enumeration.  Unlike [wall_ms], all fields are deterministic. *)
type fastpath = { static_hits : int; static_abs_hits : int; enumerated : int }

val fastpath_zero : fastpath
val add_fastpath : fastpath -> fastpath -> fastpath

(** Checks discharged without enumeration (either static route). *)
val fastpath_static : fastpath -> int

val fastpath_total : fastpath -> int

(** Fraction of checks discharged statically (0 when none ran). *)
val fastpath_rate : fastpath -> float

(** E.g. ["static 32/57 (56%, 16 replay + 16 abstract)"]. *)
val pp_fastpath : Format.formatter -> fastpath -> unit
