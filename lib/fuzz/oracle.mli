(** Pluggable differential oracles over a single generated program.

    A [Some detail] result is a {e finding}: two layers of the system
    disagree on the program.  Oracles are deterministic given the
    program; exploration cost is charged to [budget]
    ({!Engine.Budget.Exhausted} escapes, to be trapped at the campaign's
    verdict boundary). *)

open Lang

type kind =
  | Pass_correct
      (** each optimizer pass's output refines its input (advanced
          refinement, static certificate or Fig 6 enumeration) *)
  | Analysis_sound
      (** {!Analysis.Perm}'s static racy-access set covers the racy
          accesses SEQ can dynamically perform (exhaustive exploration
          over all initial permissions/memories) *)
  | Lint_agree
      (** a program {!Optimizer.Lint} raises no race/mixing diagnostic
          for has no dynamic racy access *)
  | Baseline_env
      (** single-thread SC behaviors (return value, prints, ⊥) are among
          SEQ's projected behaviors ({!Seq_model.Behavior.outcomes}); on
          race-free programs catch-fire agrees with SC *)
  | Baseline_hw of string
      (** SC behaviors are included in the named hardware backend's
          ({!Backends.Registry} name; relaxation only ever adds
          behaviors) — size-gated like [Baseline_env] *)

(** The machine [all]'s hardware-envelope oracle checks against
    (["tso"]). *)
val default_hw : string

val all : kind list

(** Stable names: ["pass-correct"], ["analysis-sound"], ["lint-agree"],
    ["baseline-env"], ["baseline-hw"] (a non-default machine renders as
    ["baseline-hw:<machine>"]). *)
val name : kind -> string

val of_string : string -> kind option

(** Advanced-only refinement check (static certificate fast path, then
    Fig 6 enumeration) — also used to refute {!Planted} variants. *)
val refines : budget:Engine.Budget.t -> src:Stmt.t -> tgt:Stmt.t -> bool

(** One program prepared for the oracles.  It holds the program's SC
    exploration ({!Baselines.Sc.explore}, at most 20 000 states), run
    lazily on first demand and shared by [Baseline_env] and every
    [Baseline_hw] check of the subject.  Being shared, it runs under no
    oracle's budget; [Baseline_hw] charges its states afterwards.  Build
    one per program inside the task that checks it: a subject is not
    meant to be shared across domains. *)
type subject

val subject : Stmt.t -> subject

(** Run one oracle on a subject.  [Some detail] is a finding; the detail
    string is deterministic.  Budget charges do not depend on which
    oracles ran on the subject before: [Baseline_hw] charges the SC
    exploration's states to [budget] even when the exploration was
    already done. *)
val check_subject :
  kind -> budget:Engine.Budget.t -> subject -> string option

(** [check k ~budget p] is [check_subject k ~budget (subject p)]. *)
val check : kind -> budget:Engine.Budget.t -> Stmt.t -> string option

(** The racy (kind, location) pairs of non-atomic accesses SEQ can
    perform from any initial permission set and memory of the program's
    2-valued domain (the [Analysis_sound] and [Lint_agree] side), sorted.
    Walks interned {!Seq_model.Core} configurations through
    {!Seq_model.Core.moves_next}, charging [budget] one state per
    configuration.
    @raise Lang.Packed.Unpackable beyond {!Lang.Packed.max_locs}
    non-atomic locations. *)
val dynamic_racy :
  budget:Engine.Budget.t -> Stmt.t -> ([ `Read | `Write ] * Loc.t) list
