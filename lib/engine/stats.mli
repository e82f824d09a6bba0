(** Timing and fast-path counters for sweeps and validation tables. *)

(** [timed f] runs [f ()] and returns its result with the elapsed
    milliseconds on the monotonic {!Clock}. *)
val timed : (unit -> 'a) -> 'a * float

(** Static fast-path counters for validation sweeps: how many checks were
    discharged by a pipeline-replay certificate ([static_hits]), by the
    abstract-interpretation certifier ([static_abs_hits]), or by
    enumeration.  Unlike timings, all fields are deterministic. *)
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
