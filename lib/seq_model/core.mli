(** Fast enumeration core: hash-consed configurations with dense integer
    ids, and memoized line/moves over a packed domain.

    A [Core.t] is a per-check context — one domain, one check, never
    shared across domains or concurrent workers (the same contract as
    [Promising.Machine.memo]).  The memoized operations return exactly
    what their uncached counterparts in {!Config} return; the
    differential harness (test/test_diffcore.ml) locks verdict and
    pair-count equality against the set-based reference checkers. *)

open Lang

type t

val create : Domain.t -> t option
(** [None] when the domain's non-atomic footprint exceeds
    {!Lang.Packed.max_locs}: callers stay on the set-based path. *)

val of_tables : Config.tables -> t
(** A fresh per-check context over already-built tables (the domain is
    the tables' domain). *)

val domain : t -> Domain.t
val tables : t -> Config.tables
val packed : t -> Packed.t

val intern : t -> Config.t -> int
(** Dense id of a configuration; equal configurations get equal ids, and
    [intern t (cfg t id) = id].  A hit allocates only the probe quad
    (five words) and at most one closure: the program state is compared
    with {!Lang.Prog.equal_state}, the memory is packed into the
    {!Lang.Packed} scratch key, and neither mask builds a closure.  A miss also copies
    the key and may grow the tables.
    @raise Lang.Packed.Unpackable if the configuration's permission set,
    written set or memory leaves the domain's non-atomic footprint
    (reachable configurations of packable roots never do). *)

val cfg : t -> int -> Config.t
(** The first-interned representative of an id. *)

val perm_mask : t -> int -> int
val written_mask : t -> int -> int

val mem_id : t -> int -> int
(** Packed-memory id of the configuration's memory
    ({!Lang.Packed.pack_mem}). *)

val cfg_count : t -> int
(** Number of distinct configurations interned so far. *)

val line : t -> Config.t -> Config.line
(** Memoized {!Config.line} (computed by a Brent-cycle walker with
    identical output — locked by test/test_diffcore.ml). *)

val line_id : t -> int -> Config.line

val line_next : t -> int -> int
(** Interned id of the end configuration of [line_id t id] (the
    [L_term]/[L_label] configuration), or -1 for [L_bot]/[L_diverge].
    Forces the line memo. *)

val line_wmax_mask : t -> int -> int
(** Packed mask of [(line_id t id).written_max].  Forces the line
    memo. *)

val moves : t -> Config.t -> Config.move list
(** Memoized {!Config.moves} (served through {!Config.moves_t}). *)

val moves_id : t -> int -> Config.move list

val moves_next : t -> int -> int array
(** Per-move successor ids for [moves_id t id]: the interned [Cont]
    configuration, or -1 for a [Bot] move.  Forces the moves memo. *)

(** Symmetry reduction over initial environments: explore one
    representative per orbit of the location renamings that fix the
    checked programs syntactically.  Verdict-preserving but
    count-changing, hence opt-in everywhere. *)
module Symmetry : sig
  val max_locs : int

  val automorphisms : Domain.t -> Stmt.t list -> (Loc.t -> Loc.t) list
  (** Non-identity renamings of the non-atomic footprint fixing every
      statement up to {!Stmt.normalize}; [[]] when the footprint has
      fewer than 2 or more than {!max_locs} locations. *)

  val minimal_env :
    (Loc.t -> Loc.t) list ->
    perm:Loc.Set.t -> written:Loc.Set.t -> mem:Value.t Loc.Map.t -> bool
  (** Is this environment the lexicographic minimum of its orbit under
      the given renamings (plus identity)? *)
end
