(** The one explorer under the interleaving machines: SC ({!Sc}), and the
    TSO and ARMv8 machines of lib/backends.

    A machine is a single step relation over its own state ({!STEP});
    {!Make} owns everything else:
    - the visited set and its count, keyed by the machine's [compare];
    - truncation at [max_states], decided when a state is pushed;
    - one {!Engine.Budget.spend_state} per admitted state and one
      {!Engine.Budget.check} per popped state, so a deadline or a state
      budget stops every machine mid-exploration;
    - the FIFO queue, each popped state stepped by thread ids in
      ascending order;
    - ⊥ for every [`Ub] step;
    - the terminal behavior: every thread has terminated, and every
      buffer has drained where the machine has buffers. *)

open Lang

module Behavior_set = Promising.Machine.Behavior_set

(** [set_nth l i v] replaces the [i]th element of a per-thread list. *)
val set_nth : 'a list -> int -> 'a -> 'a list

(** What a machine supplies. *)
module type STEP = sig
  type state

  (** State identity for the visited set. *)
  val compare : state -> state -> int

  (** The initial state of a program, one statement per thread. *)
  val init : Stmt.t list -> state

  (** Per-thread program states and outputs (most recent first), read by
      the terminal-behavior test. *)
  val progs : state -> Prog.state list

  val outs : state -> Value.t list list

  (** Every store buffer is empty ([true] for a machine without
      buffers). *)
  val drained : state -> bool

  (** [thread_steps values st tid]: the successors of [st] by one step of
      thread [tid] ([[]] if it cannot move); [values] is the choice
      domain.  [`Ub] is a step into undefined behavior. *)
  val thread_steps :
    Value.t list -> state -> int -> [ `Next of state | `Ub ] list

  (** The race observation, folded over every visited state from
      [no_race]. *)
  type race

  val no_race : race
  val observe : race -> state -> race
end

type 'race result = {
  behaviors : Behavior_set.t;
  races : 'race;  (** the race observation over every visited state *)
  truncated : bool;  (** [max_states] hit: the behavior set may be partial *)
  states : int;  (** distinct states explored *)
}

module Make (S : STEP) : sig
  (** Exhaustive breadth-first exploration of a program, one statement
      per thread, over [values] (default [[0; 1; 2]]) and at most
      [max_states] distinct states (default 200 000).  [budget] (default
      {!Engine.Budget.unlimited}) is charged as above;
      {!Engine.Budget.Exhausted} escapes. *)
  val explore :
    ?values:Value.t list ->
    ?max_states:int ->
    ?budget:Engine.Budget.t ->
    Stmt.t list ->
    S.race result
end
