(** Advanced behavioral refinement (§3): refinement up to commitment sets
    (Fig 2) quantified over all oracles (Def 3.2/3.3), decided by the
    simulation of Fig 6 over the finite domain. *)

open Lang

(** A simulation node: commitment set R plus the two configurations. *)
type pair = { commit : Loc.Set.t; tgt : Config.t; src : Config.t }

(** Decide refinement from a set of initial pairs, also reporting the
    number of simulation nodes explored.  [budget] (default unlimited, a
    no-op) is charged one state per explored simulation node and polled
    along the fixpoint and inside the ∀-oracle suffix games; on
    exhaustion {!Engine.Budget.Exhausted} escapes — use {!check_verdict}
    to get [Unknown] instead.  The game runs on {!Core} ids.
    @raise Lang.Packed.Unpackable when the domain has more than
    {!Lang.Packed.max_locs} non-atomic locations or a root leaves it. *)
val check_pairs_count :
  ?budget:Engine.Budget.t -> Domain.t -> pair list -> bool * int

(** [check d ~src ~tgt] decides [σ_tgt ⊑w σ_src] (Def 3.3) over the finite
    domain.  Implies nothing about termination; by Prop 3.4 it is implied
    by {!Refine.check}.  @raise Config.Mixed_access on mixed-mode use of a
    location.
    @raise Lang.Packed.Unpackable beyond {!Lang.Packed.max_locs}
    non-atomic locations, before any root is built.
    @raise Engine.Budget.Exhausted when [budget] runs out. *)
val check :
  ?quantify_written:bool -> ?symmetry:bool -> ?budget:Engine.Budget.t ->
  Domain.t -> src:Stmt.t -> tgt:Stmt.t -> bool

(** Like {!check}, also reporting the number of simulation nodes explored
    (for sweep statistics).  [symmetry] (default off) explores one initial
    environment per location-renaming orbit — verdict preserved, node
    counts reduced. *)
val check_count :
  ?quantify_written:bool -> ?symmetry:bool -> ?budget:Engine.Budget.t ->
  Domain.t -> src:Stmt.t -> tgt:Stmt.t -> bool * int

(** Budgeted three-valued {!check}: never raises. *)
val check_verdict :
  ?quantify_written:bool -> ?symmetry:bool -> ?budget:Engine.Budget.t ->
  Domain.t -> src:Stmt.t -> tgt:Stmt.t -> unit Engine.Verdict.t
