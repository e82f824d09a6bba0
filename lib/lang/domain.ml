(** Finite domains for exhaustive checking.

    The paper's refinement notions quantify over arbitrary values, memories,
    permission sets, and environments.  To decide them for litmus-sized
    programs we restrict the defined values to a small finite set and the
    locations to the program footprint; all quantifiers then range over
    finite sets and bounded-complete enumeration is exact on this domain
    (see DESIGN.md). *)

type t = {
  values : Value.t list;  (** defined values, no [undef] *)
  na_locs : Loc.t list;   (** non-atomic locations, sorted *)
  at_locs : Loc.t list;   (** atomic locations, sorted *)
}

let default_values = [ Value.Int 0; Value.Int 1; Value.Int 2 ]

let make ?(values = default_values) ~na_locs ~at_locs () =
  let sort = List.sort_uniq Loc.compare in
  { values; na_locs = sort na_locs; at_locs = sort at_locs }

(** Build a domain from the footprints of the given statements (all threads
    of a program, or source and target of a transformation).  Locations
    accessed non-atomically anywhere are classified [na]; purely atomic ones
    [at].  Mixed locations are classified [na] here — SEQ clients must
    reject them separately via {!Stmt.mixed_locations}. *)
let of_stmts ?(values = default_values) (stmts : Stmt.t list) =
  let fps = List.map Stmt.footprint stmts in
  let na =
    List.fold_left (fun acc fp -> Loc.Set.union acc fp.Stmt.na) Loc.Set.empty fps
  in
  let at =
    List.fold_left (fun acc fp -> Loc.Set.union acc fp.Stmt.at) Loc.Set.empty fps
  in
  let at = Loc.Set.diff at na in
  make ~values ~na_locs:(Loc.Set.elements na) ~at_locs:(Loc.Set.elements at) ()

let of_stmt ?values s = of_stmts ?values [ s ]

(** All values including [undef] — the range of memories and of
    environment-provided values. *)
let values_with_undef d = Value.Undef :: d.values

let na_set d = Loc.Set.of_list d.na_locs

(** All subsets of a location list (as sets).  Exponential: callers keep
    footprints small. *)
let subsets (locs : Loc.t list) : Loc.Set.t list =
  List.fold_left
    (fun acc x ->
      List.concat_map (fun s -> [ s; Loc.Set.add x s ]) acc)
    [ Loc.Set.empty ] locs

(** All total assignments of the given values to the given locations. *)
let assignments (locs : Loc.t list) (values : Value.t list) :
    Value.t Loc.Map.t list =
  List.fold_left
    (fun acc x ->
      List.concat_map
        (fun m -> List.map (fun v -> Loc.Map.add x v m) values)
        acc)
    [ Loc.Map.empty ] locs

(** All memories [M : Loc_na → Val] over the domain (values include
    [undef]). *)
let memories d = assignments d.na_locs (values_with_undef d)

(** Supersets of [p] within the domain's non-atomic locations (for
    acquire-read permission gains). *)
let supersets d (p : Loc.Set.t) : Loc.Set.t list =
  let gainable = List.filter (fun x -> not (Loc.Set.mem x p)) d.na_locs in
  List.map (fun extra -> Loc.Set.union p extra) (subsets gainable)

(** Subsets of [p] (for release-write permission drops). *)
let subsets_of d (p : Loc.Set.t) : Loc.Set.t list =
  subsets (List.filter (fun x -> Loc.Set.mem x p) d.na_locs)

(** All acquire instantiations from permission set [p]: the post set
    paired with the environment-provided values for the gained locations.
    This is {e the} canonical enumeration (content and order) of the
    acquire choices of Fig 1 — the packed caches of {!Packed} and the
    set-based reference transitions of the tests both delegate here, so
    cached and uncached enumeration can never drift apart. *)
let acquire_choices d (p : Loc.Set.t) : (Loc.Set.t * Value.t Loc.Map.t) list =
  List.concat_map
    (fun post ->
      let gained = Loc.Set.diff post p in
      List.map
        (fun vnew -> (post, vnew))
        (assignments (Loc.Set.elements gained) (values_with_undef d)))
    (supersets d p)

let pp ppf d =
  Fmt.pf ppf "values=%a na=%a at=%a"
    Fmt.(list ~sep:comma Value.pp) d.values
    Fmt.(list ~sep:comma Loc.pp) d.na_locs
    Fmt.(list ~sep:comma Loc.pp) d.at_locs
