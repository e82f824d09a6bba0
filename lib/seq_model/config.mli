(** SEQ configurations ⟨σ, P, F, M⟩.  Their transitions (Fig 1) are
    computed by {!Core} on interned ids. *)

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

type status =
  | Running
  | Term of Value.t  (** σ = return(v) *)

val status : t -> status

exception Mixed_access of Loc.t

(** Enforce the SEQ well-formedness precondition: no location is accessed
    both atomically and non-atomically (§2, footnote 3). *)
val check_no_mixing : Stmt.t list -> unit

val pp : Format.formatter -> t -> unit
