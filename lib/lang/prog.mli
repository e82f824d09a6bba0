(** Small-step labeled transition system for WHILE programs (§2, "Program
    representation in the paper").

    Every non-terminal state offers exactly one action {!shape}; reads and
    choices continue as a function of the observed/chosen value, making
    every WHILE program {e deterministic} in the sense of Def 6.1 (required
    by the adequacy theorem).  Evaluating [return e] — including the
    implicit [return 0] at the end of a program — is a silent step, so a
    running state exists between a program's last action and its
    termination (Example 2.2 relies on this). *)

type state = {
  cont : Stmt.t list;  (** continuation; the head is never [Seq] *)
  regs : Value.t Reg.Map.t;
  ret : Value.t option;  (** [Some v] once a [return] has been evaluated *)
}

val init : ?regs:Value.t Reg.Map.t -> Stmt.t -> state

val compare_state : state -> state -> int

val equal_state : state -> state -> bool
(** [equal_state a b = (compare_state a b = 0)]; allocates at most one
    closure. *)

val hash_state : state -> int
(** Equal states hash equal, whatever the tree shapes of their register
    maps. *)

val read_reg : state -> Reg.t -> Value.t
val write_reg : state -> Reg.t -> Value.t -> state

(** Outcome of an atomic update as a function of the read value. *)
type update_outcome =
  | Upd_fault  (** e.g. CAS comparison against [undef]: UB *)
  | Upd_write of Value.t * state  (** success: write the value, continue *)
  | Upd_read_only of state  (** failed CAS: an acquire read, no write *)

(** The unique action shape offered by a state. *)
type shape =
  | Terminated of Value.t
  | Undefined  (** the state steps to ⊥ (UB) *)
  | Silent of state
  | Choice of (Value.t -> state)
  | Do_read of Mode.read * Loc.t * (Value.t -> state)
  | Do_write of Mode.write * Loc.t * Value.t * state
  | Do_update of Loc.t * (Value.t -> update_outcome)
  | Do_fence of Mode.fence * state
  | Do_out of Value.t * state

val step : state -> shape

(** Always true — WHILE programs are deterministic by construction
    (Def 6.1); exposed for documentation and tests. *)
val is_deterministic : Stmt.t -> bool

val pp_state : Format.formatter -> state -> unit
