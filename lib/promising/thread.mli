(** PS_na thread states ⟨σ, V, P⟩ and thread-configuration steps (Fig 5),
    with the exploration bounds documented in DESIGN.md. *)

open Lang

type t = {
  prog : Prog.state;
  views : Tview.t;  (** cur/acq/rel view triple; [cur] is the paper's V *)
  promises : Message.t list;  (** sorted *)
  outs : Value.t list;  (** outputs, most recent first *)
  promised : int;  (** promise steps taken so far *)
}

val init : Prog.state -> t

(** The current view (the single view of the paper's fragment). *)
val cur : t -> View.t

val compare : t -> t -> int

(** Exact equality, [==] first at every level.  Implies
    [compare a b = 0]. *)
val equal : t -> t -> bool

type params = {
  values : Value.t list;  (** defined values for choices/promises *)
  batch_bound : int;  (** max extra messages per non-atomic write *)
  batch_concrete : bool;
      (** also enumerate fresh concrete extra messages in write batches *)
  promise_budget : int;  (** max promise steps per thread *)
  cert_fuel : int;  (** depth bound for certification search *)
  max_states : int;  (** machine-exploration state budget *)
  track_fence_views : bool;
      (** keep the acq/rel view components (inert without fences) *)
}

val default_params : params

val values_with_undef : params -> Value.t list

val has_promise : t -> Message.t -> bool

(** The race-helper judgment (Fig 5): some message of [x], not our own
    promise, sits above our view — for atomic accesses it must be a
    valueless non-atomic message. *)
val is_racy : Memory.t -> t -> Loc.t -> atomic:bool -> bool

(** The (fail)/(racy-write) side condition: all promises above the view. *)
val may_fail : t -> bool

type outcome =
  | Step of t * Memory.t * bool  (** successor; flag marks promise steps *)
  | Failure  (** the thread reaches ⟨⊥, V, ∅⟩ *)

(** All non-promise PS_na steps of a thread against the given memory.
    Fences use PS2-style view-triple semantics (an extension of the
    paper's single-view fragment). *)
val steps : params -> Memory.t -> t -> outcome list

(** Locations a statement may write — a thread can only fulfill promises
    on locations it writes. *)
val writable_locs : Loc.Set.t -> Stmt.t -> Loc.Set.t

(** Promise steps at the given locations (bounded by the budget). *)
val promise_steps : params -> Loc.t list -> Memory.t -> t -> outcome list

(** The (lower) step: weaken an own promise's value to [undef] and/or its
    view to ⊥. *)
val lower_steps : Memory.t -> t -> outcome list

val pp : Format.formatter -> t -> unit
