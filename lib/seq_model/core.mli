(** Fast enumeration core: SEQ transitions over interned configuration
    ids.

    A [Core.t] is a per-check context — one domain, one check, never
    shared across domains or concurrent workers (the same contract as
    [Promising.Machine.memo]).  A configuration is interned as the quad
    (program id, permission mask, written mask, memory id) and every
    transition — line, moves, suffix branching, the source's answer in a
    refinement game — is computed on quads, memoized per id.  What they
    compute is exactly what the set-based transitions of Fig 1 compute;
    the differential harness (test/test_diffcore.ml) checks the
    moves and lines on every reachable configuration of its samples, and
    verdicts and pair counts against the set-based reference checkers of
    the test-only [Seq_ref] library.  The core is the only way SEQ is
    evaluated in [lib/]: a domain it cannot pack is an undecided check. *)

open Lang

type t

val create : Domain.t -> t
(** @raise Lang.Packed.Unpackable when the domain's non-atomic footprint
    exceeds {!Lang.Packed.max_locs}; {!Engine.Verdict.run} reports that
    as [Unknown]. *)

val packed : t -> Packed.t

val intern : t -> Config.t -> int
(** Dense id of a configuration; equal configurations get equal ids, and
    [intern t (cfg t id) = id].  A hit allocates at most one closure:
    the program state is compared with {!Lang.Prog.equal_state}, the
    memory is packed into the {!Lang.Packed} scratch key, and neither the
    masks nor the probe of the quad allocate.  A miss may grow the
    tables.
    @raise Lang.Packed.Unpackable if the configuration's permission set,
    written set or memory leaves the domain's non-atomic footprint
    (reachable configurations of packable roots never do). *)

val cfg : t -> int -> Config.t
(** Decode an id (built on each call). *)

val status : t -> int -> Config.status

val perm_mask : t -> int -> int
val written_mask : t -> int -> int

val mem_id : t -> int -> int
(** Packed-memory id of the configuration's memory
    ({!Lang.Packed.pack_mem}). *)

val mem_le : t -> int -> int -> bool
(** Pointwise [⊑] of two memory ids over the footprint, absent bindings
    reading as 0 (the memory order of termination behaviors). *)

val cfg_count : t -> int
(** Number of distinct configurations interned so far. *)

(** {2 The unlabeled line}

    The end of the deterministic silent and non-atomic steps of an id,
    computed by a Brent-cycle walker on quads. *)

type line_end =
  | L_term of Value.t  (** terminated *)
  | L_bot  (** the line reaches ⊥ *)
  | L_diverge  (** an unlabeled cycle *)
  | L_label  (** the next step emits a label *)

val line_end : t -> int -> line_end

val line_next : t -> int -> int
(** Id of the line's end configuration for [L_term]/[L_label], -1
    otherwise. *)

val line_wmax_mask : t -> int -> int
(** Packed mask of the line's [written_max]. *)

(** {2 Labeled moves}

    All SEQ moves of an id (Fig 1), environment choices enumerated over
    the domain in {!Lang.Domain}'s order: move [k] emits the labels
    of label-list id [(moves_labels t id).(k)] and leads to
    [(moves_next t id).(k)]. *)

val moves_labels : t -> int -> int array

val moves_next : t -> int -> int array
(** Successor id of each move, or -1 for a move to ⊥. *)

val labels : t -> int -> Event.t list
(** The labels of a label-list id: one list per distinct label
    sequence, shared by every move that emits it. *)

val list_labels : t -> int -> int array
(** The label ids of a label-list id, for {!answer}. *)

val is_acquire : t -> int -> bool
val is_release : t -> int -> bool

val label_written : t -> int -> int
(** Written mask an acquire or release label records. *)

val release_excess : t -> int -> int -> int
(** [release_excess t l id]: the locations of release label [l]'s
    pre-release permissions whose released value is not ⊑ the value of
    configuration [id]'s memory — what the simple game forbids and the
    advanced game turns into commitments. *)

(** {2 The source side of a refinement game} *)

(** A source position while it answers the labels of one target move.
    RMWs and acquire-release fences emit two labels atomically; the
    pending positions owe the forced second half, from the configuration
    of the given id. *)
type point =
  | No  (** the source cannot answer *)
  | Bot  (** the source answers and moves to ⊥ *)
  | Plain of int
  | Pend_rel of Event.rel_kind * int
  | Pend_acq of Event.acq_kind * int

val point_id : point -> int
(** The configuration id of a [Plain] or pending point. *)

val answer : t -> point -> int -> point
(** [answer t pt l]: the source at [pt] answers target label [l] with a
    ⊑-greater label whose environment parts (read values, permissions,
    gained values) are copied from [l].  A [Plain] point must sit at a
    labeled step (a line end).  Checks the permission set, the label
    kinds and the values; the written-set and released-memory conditions
    differ between the games and stay with the caller
    ({!label_written}, {!release_excess}). *)

(** {2 Acquire-free successors} *)

(** The ∀-oracle branching of a suffix in the advanced game (Fig 6): no
    acquire step is allowed, every environment choice is a branch, and
    branches to ⊥ are dropped. *)
type suffix =
  | Sx_forbidden  (** the next step acquires *)
  | Sx_term  (** terminated *)
  | Sx_branches of int array  (** empty when every branch is ⊥ *)

val suffix : t -> int -> suffix
(** Memoized per id. *)

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
