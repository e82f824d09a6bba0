(** Messages (§5, Fig 5): concrete messages ⟨x@t, v, V⟩ and valueless
    non-atomic messages x@t ∈ NAMsg used for race detection.

    [attached] encodes RMW atomicity: an attached message sits immediately
    after its predecessor and nothing may ever be inserted between them
    (the point-timestamp rendering of PS's interval adjacency). *)

open Lang

type payload =
  | Concrete of { value : Value.t; view : View.t }
  | Reserved  (** NAMsg: valueless, view ⊥ *)

type t = {
  loc : Loc.t;
  ts : Time.t;
  attached : bool;
  payload : payload;
}

val view : t -> View.t
val value : t -> Value.t option
val is_concrete : t -> bool
val is_reserved : t -> bool
val compare_payload : payload -> payload -> int
val compare : t -> t -> int

(** Field-wise equality, [==] first, with {!View.equal} on the views:
    implies [compare m1 m2 = 0]. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
