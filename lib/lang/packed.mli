(** Packed representation of a finite location domain: bitmask location
    sets, interned memories, and cached environment-choice tables.

    One [Packed.t] belongs to one {!Domain.t} and (like
    [Promising.Machine.memo]) must never be shared across domains.  The
    cached acquire/release lists are obtained by calling
    {!Domain.acquire_choices} / {!Domain.subsets_of} on first use and
    replaying the result thereafter, so packed enumeration is
    order-identical to the set-based one (see test/test_diffcore.ml). *)

type t

exception Unpackable
(** Raised when a location, value, or memory lies outside the packed
    universe, or when the domain exceeds {!max_locs} non-atomic
    locations.  Callers fall back to the set-based path. *)

val max_locs : int
(** Upper bound on packable non-atomic footprints (mask tables are
    [2^n]). *)

val make : Domain.t -> t
(** Build the tables for a domain.  @raise Unpackable if the domain has
    more than {!max_locs} non-atomic locations. *)

val domain : t -> Domain.t
val nlocs : t -> int

val full_mask : t -> int
(** Mask of the whole non-atomic footprint, [2^nlocs - 1]. *)

val mask_of_set : t -> Loc.Set.t -> int
(** Allocates nothing.  @raise Unpackable if the set contains a location
    outside the domain's non-atomic footprint. *)

val set_of_mask : t -> int -> Loc.Set.t
(** O(1) table lookup; total on [0 .. full_mask]. *)

val value_id : t -> Value.t -> int
(** Ids are [>= 1]; id [0] is reserved for "absent binding" in packed
    memories.  Total: values outside [Domain.values_with_undef] (programs
    can compute and store them) are interned on first sight. *)

val value_of_id : t -> int -> Value.t
(** Inverse of {!value_id} on ids [>= 1]. *)

val pack_mem : t -> Value.t Loc.Map.t -> int
(** Intern a (partial) memory; equal memories get equal ids, and a
    location absent from the map is distinguished from any present
    binding.  The key is built in a buffer owned by [t] and copied only
    when the memory is new, so a hit allocates nothing.
    @raise Unpackable on foreign locations. *)

val mem_of_id : t -> int -> Value.t Loc.Map.t
val mem_count : t -> int

val acquire_choices : t -> int -> (Loc.Set.t * Value.t Loc.Map.t) list
(** [acquire_choices t pmask] = [Domain.acquire_choices (domain t) p]
    for [p = set_of_mask t pmask], cached per mask. *)

val release_choices : t -> int -> Loc.Set.t list
(** [release_choices t pmask] = [Domain.subsets_of (domain t) p], cached
    per mask. *)

val submasks : int -> int list
(** All submasks of a mask, including [0] and the mask itself
    (test helper). *)
