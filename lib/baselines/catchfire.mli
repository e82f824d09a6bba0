(** The catch-fire baseline: C/C++11-style "data race ⇒ UB" semantics
    (§1).  PS_na's departure from this — racy reads return [undef] — is
    what makes load introduction sound; this module is the comparison
    point for experiment E6. *)

open Lang

type result = {
  behaviors : Sc.Behavior_set.t;  (** SC behaviors, plus ⊥ if racy *)
  catches_fire : bool;  (** some interleaving has a data race *)
}

(** The catch-fire reading of an SC exploration: its behaviors, plus ⊥
    if it raced. *)
val of_sc : Sc.result -> result

(** [explore progs] is [of_sc (Sc.explore progs)]. *)
val explore : ?values:Value.t list -> ?max_states:int -> Stmt.t list -> result

(** Contextual refinement under catch-fire (⊥ in the source matches
    everything). *)
val refines : src:result -> tgt:result -> bool
