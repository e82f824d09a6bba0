(** Sequentially consistent interleaving baseline with happens-before data
    race detection (the shared {!Hb}); used by the catch-fire comparison
    (E6) and the DRF experiments (E7). *)

open Lang

type behavior = Promising.Machine.behavior =
  | Ret of (Value.t * Value.t list) list
  | Bot

module Behavior_set = Promising.Machine.Behavior_set

type result = {
  behaviors : Behavior_set.t;
  races : bool;
      (** some interleaving has a data race (conflicting unordered pair
          with at least one non-atomic access) *)
  strict_races : bool;
      (** some interleaving has a conflicting unordered pair of any access
          modes (the DRF-SC premise — nothing in the fragment is an SC
          atomic) *)
  strict_race_locs : Loc.Set.t;
      (** locations of such pairs (the DRF-LOCK premise) *)
  truncated : bool;
  states : int;
}

(** Exhaustive interleaving exploration under SC, by {!Explore.Make}:
    [budget] is charged one state per distinct state, and
    {!Engine.Budget.Exhausted} escapes. *)
val explore :
  ?values:Value.t list ->
  ?max_states:int ->
  ?budget:Engine.Budget.t ->
  Stmt.t list ->
  result
