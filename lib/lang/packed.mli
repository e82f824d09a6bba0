(** Packed representation of a finite location domain: bitmask location
    sets, interned memories, and cached environment-choice tables.

    One [Packed.t] belongs to one {!Domain.t} and (like
    [Promising.Machine.memo]) must never be shared across domains.  The
    per-mask acquire/release tables are built by calling
    {!Domain.acquire_choices} / {!Domain.subsets_of} on first use and
    replaying the result thereafter, so packed enumeration is
    order-identical to the set-based one (see test/test_diffcore.ml). *)

type t

exception Unpackable
(** Raised when a location, value, or memory lies outside the packed
    universe, or when the domain exceeds {!max_locs} non-atomic
    locations.  SEQ has no other evaluation path, so a check that raises
    it is undecided ([Engine.Verdict.run] reports [Unknown]). *)

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

(** {2 Memory arithmetic}

    The effects of SEQ transitions on memory ids.  Each builds the
    successor's key in the scratch buffer of {!pack_mem} and interns it,
    so a memory seen before costs no allocation.  Location arguments are
    indices into the sorted non-atomic footprint. *)

val mem_read_vid : t -> int -> int -> int
(** Value id the location holds; an absent binding reads as
    [Value.zero] (the PS_na initialisation value). *)

val mem_read : t -> int -> int -> Value.t
(** [value_of_id t (mem_read_vid t m i)]. *)

val mem_set : t -> int -> int -> int -> int
(** [mem_set t m i vid]: the memory [m] with location [i] bound to the
    value of id [vid] (a non-atomic write). *)

val mem_acquire : t -> int -> int -> int -> int
(** [mem_acquire t m pmask k]: [m] overwritten with the values that
    acquire choice [k] of permission mask [pmask] gains. *)

val mem_released : t -> int -> int -> int
(** [mem_released t m pmask]: the released memory [M|P] of a release
    from permission mask [pmask], every location of [P] bound. *)

(** {2 Environment choices}

    Per permission mask [pmask], with [p = set_of_mask t pmask], cached on
    first use. *)

val acquire_count : t -> int -> int
(** Length of [Domain.acquire_choices (domain t) p]. *)

val acquire_choice : t -> int -> int -> Loc.Set.t * Value.t Loc.Map.t
(** Choice [k] of [Domain.acquire_choices (domain t) p], the very
    value. *)

val acquire_post : t -> int -> int -> int
(** Mask of the post set of [acquire_choice t pmask k]. *)

val release_posts : t -> int -> int array
(** The masks of [Domain.subsets_of (domain t) p], in order. *)

val submasks : int -> int list
(** All submasks of a mask, including [0] and the mask itself
    (test helper). *)
