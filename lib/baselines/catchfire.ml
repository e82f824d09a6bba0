(** The catch-fire baseline: C/C++11-style semantics where any data race is
    undefined behavior (§1).

    The paper's key departure from prior work (and from C/C++11) is that
    PS_na does {e not} catch fire on write-read races — racy reads return
    [undef] — which is what makes (irrelevant) load introduction sound.
    This module gives the comparison point: behaviors are the SC behaviors,
    except that if {e any} interleaving races, the program has UB (the
    standard "DRF or catch fire" reading). *)

open Lang

type result = {
  behaviors : Sc.Behavior_set.t;
  catches_fire : bool;
}

(* Catch-fire needs no exploration of its own: it is a post-processing
   of the SC result. *)
let of_sc (r : Sc.result) : result =
  if r.Sc.races then
    { behaviors = Sc.Behavior_set.add Sc.Bot r.Sc.behaviors; catches_fire = true }
  else { behaviors = r.Sc.behaviors; catches_fire = false }

let explore ?values ?max_states (progs : Stmt.t list) : result =
  of_sc (Sc.explore ?values ?max_states progs)

(** Contextual refinement under catch-fire: every target behavior must be
    matched (⊥ in the source matches everything).  Load introduction fails
    this when the introduced load races in the target while the source is
    race-free. *)
let refines ~(src : result) ~(tgt : result) : bool =
  Promising.Machine.refines ~src:src.behaviors ~tgt:tgt.behaviors
