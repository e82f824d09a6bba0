(** Cooperative resource budgets for exhaustive checkers and explorers.

    The refinement/adequacy checkers are fixpoint explorations whose cost
    explodes with the domain size; a {!t} bounds one task attempt by an
    optional deadline on the monotonic {!Clock}, a state/pair budget, and
    a step fuel.
    Hot loops call {!check} (cheap: a counter decrement between throttled
    clock polls) and charge work with {!spend_state}/{!spend_fuel}; when a
    limit is hit, {!Exhausted} is raised and is meant to be caught exactly
    once, at a verdict boundary ({!Verdict.run}/{!Verdict.capture} or
    {!Sweep.run_verdict}) where it becomes an [Unknown] outcome.

    A budget is mutable, single-owner state: create one per task attempt
    and never share one across domains.  {!unlimited} is the exception —
    all operations on it are no-ops (it never mutates), so it is safe to
    share and is the default everywhere, making the budgeted code paths
    byte-identical to the historical unbudgeted ones. *)

(** Why a budget ran out. *)
type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | States  (** the state/pair budget was consumed *)
  | Fuel  (** the step fuel was consumed *)

exception Exhausted of reason

val reason_to_string : reason -> string
val pp_reason : Format.formatter -> reason -> unit

(** Immutable description of per-attempt limits; [start] turns it into a
    live budget (capturing the deadline at call time, so retries of a
    task each get a fresh full timeout). *)
type spec = {
  timeout_ms : float option;  (** wall-clock limit per attempt *)
  max_states : int option;  (** states/simulation pairs per attempt *)
  max_fuel : int option;  (** abstract step limit per attempt *)
}

val spec_unlimited : spec
val spec : ?timeout_ms:float -> ?max_states:int -> ?fuel:int -> unit -> spec
val spec_is_unlimited : spec -> bool

type t

(** The shared no-op budget: never exhausts, never mutates. *)
val unlimited : t

(** Start the clock on a [spec].  [start spec_unlimited == unlimited]. *)
val start : spec -> t

(** [make ()] is {!unlimited}; any argument makes a limited budget whose
    deadline (if any) starts now. *)
val make : ?timeout_ms:float -> ?max_states:int -> ?fuel:int -> unit -> t

val is_unlimited : t -> bool

(** Poll the deadline.  Amortized cost is one integer decrement: the
    clock is read only every few hundred calls (and on the first call, so
    an already-expired deadline is noticed immediately).
    @raise Exhausted [Deadline] when past the deadline. *)
val check : t -> unit

(** Charge [n] (default 1) states/pairs, then {!check}.
    @raise Exhausted [States] when the budget is consumed. *)
val spend_state : ?n:int -> t -> unit

(** Charge [n] (default 1) fuel steps, then {!check}.
    @raise Exhausted [Fuel] when the fuel is consumed. *)
val spend_fuel : ?n:int -> t -> unit

(** States charged so far (0 for {!unlimited}). *)
val states_used : t -> int
