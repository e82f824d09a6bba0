(** Oracles (Def 3.2): LTSs over stripped transition labels representing a
    possible concurrent environment.

    {!Advanced} decides the ∀-oracle quantification internally; this module
    makes oracles concrete so Def 3.2/3.3 and the §3 counterexamples can be
    exercised directly.  Oracles built from the combinators satisfy
    progress and monotonicity by construction. *)

open Lang

type t =
  | Oracle : {
      init : 's;
      step : 's -> Event.stripped -> 's option;
    }
      -> t  (** an LTS with existential internal state *)

(** [tr ∈ Tr(Ω)]. *)
val allows : t -> Event.t list -> bool

(** The free oracle: allows everything. *)
val free : t

(** Constrain the values of atomic reads of a location ([undef] stays
    allowed — monotonicity). *)
val reads_satisfy : Loc.t -> (Value.t -> bool) -> t

(** An environment that never grants permissions. *)
val no_permission_gain : t

(** An environment that forces every release to drop all permissions. *)
val drop_all_on_release : t

(** Constrain [choose] resolutions. *)
val chooses_satisfy : (Value.t -> bool) -> t

(** Intersection (product LTS). *)
val both : t -> t -> t
