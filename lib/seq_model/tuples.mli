(** Interning of fixed-arity int tuples into dense ids, by open
    addressing: the caller writes the tuple into {!key} and a hit
    allocates nothing.  Used for the configuration quads, labels and
    label lists of {!Core} and the pairs of {!Pair_graph}. *)

type t = private {
  arity : int;
  key : int array;  (** the probe tuple, filled by the caller *)
  mutable keys : int array;
  mutable slots : int array;
  mutable count : int;  (** number of tuples interned *)
}

val create : int -> t
(** An empty table of tuples of the given arity. *)

val find : t -> int
(** Id of the tuple in [key], or [-1 - slot] when it is absent. *)

val add : t -> int -> int
(** [add t miss] adds the tuple in [key] at the slot a missing {!find}
    reported ([miss]), with no other insertion in between; returns its
    id, the next dense one. *)

val intern : t -> int
(** Id of the tuple in [key], added if new. *)

val get : t -> int -> int -> int
(** [get t id j]: component [j] of tuple [id]. *)
