(** Engine-swept litmus/soundness matrices shared by the bench harness,
    the CLI drivers, and the golden-table regression tests.

    Rendering discipline: with [stats:false] every rendered byte is a
    deterministic function of the corpus (verdicts, state/pair counts) —
    that is what the golden tests pin down.  [stats:true] appends one
    final wall-clock [ms] column, the only column allowed to differ
    between runs or [--jobs] settings.

    Each table has one sweep, supervised by {!Engine.Sweep.run_verdict},
    and one renderer over its outcomes.  A task that fails (budget
    exhausted, exception trapped) renders as an [UNKNOWN(reason)] row and
    the footer counts such rows only when there are any, so a table whose
    tasks all succeed reads the same under any budget. *)

open Lang

(** One row of the E1/E2 transformation soundness matrix. *)
type e12_row = {
  tr : Catalog.transformation;
  simple_got : Catalog.verdict;
  advanced_got : Catalog.verdict;
  pairs : int;  (** simulation pairs explored (simple + advanced) *)
  wall_ms : float;
}

(** Expected and computed verdicts agree. *)
val e12_ok : e12_row -> bool

val e12_row :
  ?values:Value.t list -> ?budget:Engine.Budget.t ->
  Catalog.transformation -> e12_row

(** The E1/E2 sweep: one supervised outcome per corpus entry, in corpus
    order; never raises.  Each task attempt gets a fresh budget from
    [budget]; budget exhaustion and trapped exceptions (e.g.
    [Config.Mixed_access]) become [Error] outcomes instead of aborting the
    sweep (see {!Engine.Sweep.run_verdict}).  [corpus] defaults to the full
    {!Catalog.transformations}. *)
val e12_rows :
  ?pool:Engine.Pool.t -> ?jobs:int -> ?values:Value.t list ->
  ?budget:Engine.Budget.spec -> ?retries:int -> ?faults:Engine.Faults.plan ->
  ?corpus:Catalog.transformation list -> unit ->
  (Catalog.transformation * e12_row Engine.Sweep.outcome) list

(** Render the outcomes: a failed task gets an [UNKNOWN(reason)] row and
    the footer counts such rows (only when nonzero). *)
val render_e12 :
  ?stats:bool ->
  (Catalog.transformation * e12_row Engine.Sweep.outcome) list -> string

(** One row of the E4 PS_na litmus table. *)
type e4_row = {
  c : Catalog.concurrent;
  states : int;
  races : bool;
  truncated : bool;
  behaviors : string;  (** pretty-printed behavior set *)
  wall_ms : float;
}

val e4_row :
  ?params:Promising.Thread.params -> ?memo:Promising.Machine.memo ->
  ?budget:Engine.Budget.t -> Catalog.concurrent -> e4_row

(** The E4 sweep over the litmus catalog, supervised as {!e12_rows}.
    Worker domains keep a persistent per-domain certification memo across
    their tasks (never shared between domains); this warms timing only —
    states, races and behaviors are memo-independent. *)
val e4_rows :
  ?pool:Engine.Pool.t -> ?jobs:int -> ?params:Promising.Thread.params ->
  ?budget:Engine.Budget.spec -> ?retries:int -> ?faults:Engine.Faults.plan ->
  ?corpus:Catalog.concurrent list -> unit ->
  (Catalog.concurrent * e4_row Engine.Sweep.outcome) list

(** Render E4 outcomes as {!render_e12} does. *)
val render_e4 :
  ?stats:bool ->
  (Catalog.concurrent * e4_row Engine.Sweep.outcome) list -> string

(** Render E5 adequacy outcomes (from {!Adequacy.run}); same [stats]
    discipline, except that the [stats] columns are the row's pairs,
    states and memo hits: rows carry no timing, the bench harness times
    whole tables. *)
val render_e5 :
  ?stats:bool ->
  (Catalog.transformation * Adequacy.row Engine.Sweep.outcome) list -> string

(** One row of the E15 N-model differential backend grid: the litmus
    program explored under every backend in {!e15_models}, with
    per-backend allowed/forbidden verdicts for the designated weak
    outcome and an inclusion-chain check (SC ⊆ TSO ⊆ ARMv8). *)
type e15_row = {
  ge : Catalog.grid_entry;
  cells : (string * bool) list;  (** backend name -> weak outcome allowed *)
  chain_ok : bool;  (** SC ⊆ TSO ⊆ ARMv8 held on this row *)
  truncated : bool;
  wall_ms : float;
}

(** Backends swept by the litmus grid, in strength order:
    ["sc"; "tso"; "armv8"; "ps"]. *)
val e15_models : string list

(** Backends swept by the pass-soundness grid (adds ["catchfire"]). *)
val e15p_models : string list

(** Every cell matches the catalog expectation and the chain held. *)
val e15_ok : e15_row -> bool

val e15_row :
  ?values:Value.t list -> ?max_states:int -> ?budget:Engine.Budget.t ->
  Catalog.grid_entry -> e15_row

(** The E15 sweep, supervised as {!e12_rows}.  [corpus] defaults to
    {!Catalog.grid_programs}. *)
val e15_rows :
  ?pool:Engine.Pool.t -> ?jobs:int -> ?values:Value.t list ->
  ?budget:Engine.Budget.spec -> ?retries:int -> ?faults:Engine.Faults.plan ->
  ?corpus:Catalog.grid_entry list -> unit ->
  (Catalog.grid_entry * e15_row Engine.Sweep.outcome) list

val render_e15 :
  ?stats:bool ->
  (Catalog.grid_entry * e15_row Engine.Sweep.outcome) list -> string

(** One row of the E15 pass-soundness grid: a SEQ-validated
    transformation plugged into a concurrent context and re-checked as
    behavior-set refinement under every backend in {!e15p_models} —
    showing where each pass over-/under-approximates hardware. *)
type e15p_row = {
  tr : Catalog.transformation;
  ctx_name : string;
  cells : (string * bool) list;  (** backend name -> tgt refines src *)
  truncated : bool;
  wall_ms : float;
}

val e15p_row :
  ?values:Value.t list -> ?max_states:int -> ?budget:Engine.Budget.t ->
  string * string -> e15p_row

(** The pass-grid sweep, one supervised task per (transformation,
    context) pair from {!Catalog.grid_passes}. *)
val e15p_rows :
  ?pool:Engine.Pool.t -> ?jobs:int -> ?values:Value.t list ->
  ?budget:Engine.Budget.spec -> ?retries:int -> ?faults:Engine.Faults.plan ->
  ?corpus:(string * string) list -> unit ->
  ((string * string) * e15p_row Engine.Sweep.outcome) list

val render_e15p :
  ?stats:bool ->
  ((string * string) * e15p_row Engine.Sweep.outcome) list -> string
