(** SEQ configurations ⟨σ, P, F, M⟩ and the transitions of Fig 1. *)

open Lang

type t = {
  prog : Prog.state;
  perm : Loc.Set.t;  (** P — non-atomic locations we may safely access *)
  written : Loc.Set.t;  (** F — written since the last release *)
  mem : Value.t Loc.Map.t;  (** M — values of the non-atomic locations *)
}

val make :
  ?perm:Loc.Set.t -> ?written:Loc.Set.t -> ?mem:Value.t Loc.Map.t ->
  Prog.state -> t

val compare : t -> t -> int
val equal : t -> t -> bool

(** Memory lookup; absent locations read as 0 (the PS_na initialisation
    value). *)
val read_mem : t -> Loc.t -> Value.t

type next =
  | Cont of t
  | Bot  (** the program state became ⊥ (UB) *)

(** A SEQ move: emitted trace labels (empty for silent/non-atomic steps,
    two for an RMW or acq-rel fence) and the successor. *)
type move = Event.t list * next

type status =
  | Running
  | Term of Value.t  (** σ = return(v) *)

val status : t -> status

exception Mixed_access of Loc.t

(** Enforce the SEQ well-formedness precondition: no location is accessed
    both atomically and non-atomically (§2, footnote 3). *)
val check_no_mixing : Stmt.t list -> unit

(** Acquire effect: gain permissions with environment-provided values. *)
val apply_acquire : t -> post:Loc.Set.t -> vnew:Value.t Loc.Map.t -> t

(** Release effect: drop permissions, reset the written set. *)
val apply_release : t -> post:Loc.Set.t -> t

(** The released memory annotation V = M|P over the domain. *)
val released_mem : Domain.t -> t -> Value.t Loc.Map.t

(** All SEQ moves of a configuration (Fig 1), enumerating environment
    choices over the domain; terminal configurations have none. *)
val moves : Domain.t -> t -> move list

(** Advancement through the unique unlabeled (silent and non-atomic) steps
    up to the next labeled event. *)
type line_end =
  | L_term of Value.t * t
  | L_bot  (** the line reaches ⊥ *)
  | L_diverge  (** an unlabeled cycle: a silent infinite loop *)
  | L_label of t  (** the next step emits a label *)

type line = {
  line_end : line_end;
  written_max : Loc.Set.t;
      (** maximal written set along the line (F grows monotonically on
          unlabeled steps) *)
}

val line : t -> line

val pp : Format.formatter -> t -> unit
