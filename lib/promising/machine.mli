(** PS_na machine states, certification, exhaustive bounded exploration,
    and behavioral refinement (§5, Def 5.2/5.3).

    Exploration deduplicates states up to order-isomorphism of the
    per-location timestamp orders; promise steps, non-atomic write batches,
    and certification depth are bounded by {!Thread.params} (see
    DESIGN.md).

    Both the visited set and the certification memo are keyed by an
    integer canonical key, built in a reusable buffer and copied out as
    an [int array] only when stored (the keys a certification search
    visits go to a reusable arena in the {!memo} instead, since they die
    with the search): the params id, then per location its
    interned id and per message the attached bit and payload, then every
    view (SC, and each thread's cur/acq/rel) as (location id, timestamp
    rank) pairs for its non-zero entries, then per thread its interned
    program id, its promises as (location, rank, attached, payload), its
    outputs and its promise-step count.  Timestamps appear only as ranks
    in their location's message list, which is what makes the keys
    order-isomorphism invariant.  The interners live in the {!memo}, so
    keys of explorations that share a memo stay comparable.

    Each {!explore} call expands and certifies every (thread index,
    memory, thread) once: an expansion cache keeps its certified
    outcomes in step order and replays them when the same triple comes
    up again along another interleaving.  Hits are decided by the exact
    {!Memory.equal} and {!Thread.equal}, not by the canonical key, since
    the other threads' views name the memory's actual timestamps. *)

open Lang

type state = { threads : Thread.t list; memory : Memory.t }

(** A behavior: per-thread return value and output sequence, or ⊥ for a UB
    run (Def 5.2 + footnote 10). *)
type behavior =
  | Ret of (Value.t * Value.t list) list
  | Bot

val compare_behavior : behavior -> behavior -> int

module Behavior_set : Set.S with type elt = behavior

(** A certification-memo context reusable across {!explore} calls — e.g.
    every context exploration of one adequacy row, or all tasks one sweep
    worker domain executes.  It owns the verdict table and the location
    and program interners the canonical keys are built from, so keys of
    explorations sharing it stay comparable.  Not domain-safe: never share
    one across domains (that is the point — each worker owns its own).
    Reuse never changes verdicts or state counts, only timing and hit
    counts. *)
type memo

val make_memo : unit -> memo

(** Cumulative certification-memo hits across all uses of this context:
    lookups of a certification that runs, i.e. outside the per-exploration
    expansion cache (see {!explore}), that found a stored verdict. *)
val memo_hits : memo -> int

(** Distinct certification verdicts stored in this context: one per
    canonical single-thread state certified.  The expansion cache skips
    only repeated certifications, so this count does not depend on it. *)
val memo_entries : memo -> int

(** Fingerprint of the parameters certification verdicts depend on.  A
    memo interns it once per {!explore} into the params id that leads
    every key, so explorations under differing params can share one. *)
val params_fingerprint : Thread.params -> string

type result = {
  behaviors : Behavior_set.t;
  truncated : bool;  (** state budget exhausted: the set may be partial *)
  states : int;  (** distinct canonical states explored *)
  races : bool;  (** some state had an enabled racy access (race-helper) *)
  weak_races : bool;
      (** some state had a conflicting unseen message at an access of mode
          rlx or weaker — the DRF-PF premise *)
  memo_hits : int;
      (** certification-memo hits during this exploration, counting only
          certifications that run (a repeated expansion replays its
          certified successors without certifying) — deterministic iff
          the memo context was not pre-warmed by other explorations *)
}

(** Exhaustive bounded exploration of all PS_na behaviors of a concurrent
    program (one statement per thread).  [until_bot] stops as soon as ⊥ is
    recorded — sound when only the behaviors of a refinement {e source} are
    needed (⊥ subsumes everything).  [memo] shares certification verdicts
    with other explorations using the same context; the expansion cache
    (see above) is local to the call, since the locations a thread may
    promise at differ between programs.  [budget] (default
    unlimited, a no-op) is charged one state per distinct canonical state
    and polled along the search, including inside certification; on
    exhaustion {!Engine.Budget.Exhausted} escapes — wrap the call in
    {!Engine.Verdict.capture} to get an [Error] instead.  (The
    per-exploration [max_states] param truncates instead of raising and
    is unaffected.) *)
val explore :
  ?params:Thread.params -> ?until_bot:bool -> ?memo:memo ->
  ?budget:Engine.Budget.t -> Stmt.t list -> result

(** [⊑] on behaviors: pointwise value/output [⊑]; everything ⊑ ⊥. *)
val behavior_le : behavior -> behavior -> bool

(** [refines ~src ~tgt]: Def 5.3 — every target behavior is ⊑-matched by a
    source behavior (a source ⊥ matches everything). *)
val refines : src:Behavior_set.t -> tgt:Behavior_set.t -> bool

val pp_behavior : Format.formatter -> behavior -> unit
val pp_behaviors : Format.formatter -> Behavior_set.t -> unit
