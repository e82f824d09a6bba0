(** Finite domains for exhaustive checking.

    The paper's refinement notions quantify over arbitrary values,
    memories, permission sets, and environments; restricting the defined
    values to a small finite set and the locations to the program
    footprint makes every quantifier finite, so the checkers decide
    refinement exactly {e on this domain} (see DESIGN.md). *)

type t = {
  values : Value.t list;  (** defined values, no [undef] *)
  na_locs : Loc.t list;   (** non-atomic locations, sorted *)
  at_locs : Loc.t list;   (** atomic locations, sorted *)
}

val default_values : Value.t list
(** [{0, 1, 2}] — enough for every counterexample in the paper. *)

val make :
  ?values:Value.t list -> na_locs:Loc.t list -> at_locs:Loc.t list -> unit -> t

val of_stmts : ?values:Value.t list -> Stmt.t list -> t
(** Domain derived from the footprints of the given statements: locations
    accessed non-atomically anywhere are [na]; purely atomic ones [at].
    Mixed locations are classified [na] — SEQ clients must reject them via
    {!Stmt.mixed_locations}. *)

val of_stmt : ?values:Value.t list -> Stmt.t -> t

val values_with_undef : t -> Value.t list
(** The range of memories and environment-provided values: the defined
    values plus [undef]. *)

val na_set : t -> Loc.Set.t

val subsets : Loc.t list -> Loc.Set.t list
(** All subsets (exponential — footprints stay small). *)

val assignments : Loc.t list -> Value.t list -> Value.t Loc.Map.t list
(** All total assignments of the given values to the given locations. *)

val memories : t -> Value.t Loc.Map.t list
(** All memories [M : Loc_na → Val] over the domain. *)

val supersets : t -> Loc.Set.t -> Loc.Set.t list
(** Supersets of a permission set within the domain (acquire gains). *)

val subsets_of : t -> Loc.Set.t -> Loc.Set.t list
(** Subsets of a permission set (release drops). *)

val acquire_choices : t -> Loc.Set.t -> (Loc.Set.t * Value.t Loc.Map.t) list
(** All acquire instantiations from a permission set: the post set paired
    with the assignment of environment-provided values to the gained
    locations.  The canonical enumeration (content {e and} order) that both
    the set-based SEQ transitions and the packed per-mask tables
    ({!Packed.acquire_choice}) share. *)

val pp : Format.formatter -> t -> unit
