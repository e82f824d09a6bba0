(** Thread views [Loc → Time]; the bottom view ⊥ is represented by the
    empty map (all timestamps 0, below every message). *)

open Lang

type t = Time.t Loc.Map.t

val bot : t
val find : Loc.t -> t -> Time.t
val is_bot : t -> bool
val set : Loc.t -> Time.t -> t -> t
val singleton : Loc.t -> Time.t -> t
val join : t -> t -> t
val le : t -> t -> bool
val compare : t -> t -> int

(** Equality of the stored maps, [==] first.  Implies [compare a b = 0];
    the converse fails only for maps holding explicit zero entries, which
    no operation of this module stores. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
