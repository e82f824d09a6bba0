(** PS_na memory: per location, the timestamp-sorted message list
    (including the initialisation message ⟨x@0, 0, ⊥⟩).

    New-message insertion enumerates canonical positions (gap midpoints,
    above-max); behaviors only depend on relative timestamp order, and
    explored states are deduplicated up to order-isomorphism, so midpoints
    lose no behaviors. *)

open Lang

type t = {
  msgs : Message.t list Loc.Map.t;  (** per location, sorted by timestamp *)
  scv : View.t;  (** the global SC view exchanged by SC fences (PS2) *)
}

val init : Loc.t list -> t

val sc_view : t -> View.t
val with_sc_view : t -> View.t -> t
val messages_at : t -> Loc.t -> Message.t list
val all_messages : t -> Message.t list
val compare : t -> t -> int

(** Exact equality, [==] first: the same messages at the same timestamps.
    Implies [compare a b = 0].  Not invariant under timestamp
    order-isomorphism: memories whose x messages sit at 0, 1/2, 1 and at
    0, 1, 2 are not equal. *)
val equal : t -> t -> bool

(** Canonical insertion timestamps above [floor]: [(ts, pred_ts)] pairs
    where [pred_ts] is the predecessor's timestamp.  Positions in front of
    an attached message are excluded (RMW atomicity). *)
val insert_positions : ?floor:Time.t -> t -> Loc.t -> (Time.t * Time.t) list

(** Insert a message at a non-colliding timestamp. *)
val add : t -> Message.t -> t

(** Replace a message in place (the [lower] step). *)
val replace : t -> old_m:Message.t -> new_m:Message.t -> t

(** Concrete messages of a location readable at a view timestamp. *)
val readable : t -> Loc.t -> Time.t -> Message.t list

(** The message directly following [m] in its location's timeline. *)
val successor : t -> Message.t -> Message.t option

val max_ts : t -> Loc.t -> Time.t
val pp : Format.formatter -> t -> unit
