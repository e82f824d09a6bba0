(** Simple behavioral refinement in SEQ (§2, Def 2.4), decided by a
    simulation game over the finite domain.

    Because WHILE programs are deterministic (Def 6.1) and all environment
    choices are recorded inside trace labels, step-wise label matching
    coincides with trace-set inclusion; the reachable pair graph is pruned
    to a greatest fixpoint (the refinement is safety-style: partial, not
    termination-preserving). *)

open Lang

(** A simulation-game node: a target and a source configuration that agree
    on the permission set. *)
type pair = { tgt : Config.t; src : Config.t }

(** Initial pairs realizing Def 2.4's "for every P, F, M".
    [quantify_written] additionally ranges the initial F over all subsets;
    by monotonicity of all F-side conditions in a common initial F, the
    default F = ∅ already decides the quantified statement (tested). *)
val initial_pairs :
  ?quantify_written:bool ->
  Domain.t ->
  src:Prog.state ->
  tgt:Prog.state ->
  pair list

(** Decide refinement from a set of initial pairs.  [budget] (default
    unlimited, a no-op) is charged one state per explored simulation pair
    and polled along the fixpoint; on exhaustion {!Engine.Budget.Exhausted}
    escapes — use {!check_verdict} to get [Unknown] instead.

    The game runs on {!Core} ids.
    @raise Lang.Packed.Unpackable when the domain has more than
    {!Lang.Packed.max_locs} non-atomic locations or a root leaves it. *)
val check_pairs : ?budget:Engine.Budget.t -> Domain.t -> pair list -> bool

(** Like {!check_pairs}, also reporting the number of simulation pairs
    explored. *)
val check_pairs_count :
  ?budget:Engine.Budget.t -> Domain.t -> pair list -> bool * int

(** The initial pairs of {!initial_pairs} for two programs, reduced by
    [symmetry] (one initial environment per orbit of the location
    renamings fixing both programs), with the core to solve them on.
    @raise Config.Mixed_access on mixed atomic/non-atomic use.
    @raise Lang.Packed.Unpackable beyond {!Lang.Packed.max_locs}
    non-atomic locations, before any root is built. *)
val program_roots :
  ?quantify_written:bool -> symmetry:bool -> Domain.t ->
  src:Stmt.t -> tgt:Stmt.t -> Core.t * pair list

(** [check d ~src ~tgt] decides [σ_tgt ⊑ σ_src] (Def 2.4) over the finite
    domain.  [symmetry] (default off) explores one initial environment per
    orbit of the location renamings fixing both programs — verdict
    preserved, pair counts reduced (hence off wherever counts are golden).
    @raise Config.Mixed_access on mixed atomic/non-atomic use of a
    location.
    @raise Lang.Packed.Unpackable beyond {!Lang.Packed.max_locs}
    non-atomic locations ({!check_verdict} answers [Unknown]).
    @raise Engine.Budget.Exhausted when [budget] runs out. *)
val check :
  ?quantify_written:bool -> ?symmetry:bool -> ?budget:Engine.Budget.t ->
  Domain.t -> src:Stmt.t -> tgt:Stmt.t -> bool

(** Like {!check}, also reporting the number of simulation pairs explored
    (the SEQ analogue of a state count, for sweep statistics). *)
val check_count :
  ?quantify_written:bool -> ?symmetry:bool -> ?budget:Engine.Budget.t ->
  Domain.t -> src:Stmt.t -> tgt:Stmt.t -> bool * int

(** Budgeted three-valued {!check}: never raises. *)
val check_verdict :
  ?quantify_written:bool -> ?symmetry:bool -> ?budget:Engine.Budget.t ->
  Domain.t -> src:Stmt.t -> tgt:Stmt.t -> unit Engine.Verdict.t

(** A witness for a refuted refinement. *)
type counterexample = {
  initial : pair;  (** the failing initial configuration pair *)
  trace : Event.t list;  (** target labels leading to the failure *)
  failing : pair;  (** the pair at which matching breaks *)
  reason : string;
}

(** Extract a counterexample when refinement fails ([None] if it holds). *)
val find_counterexample :
  ?budget:Engine.Budget.t -> Domain.t -> pair list -> counterexample option

val pp_counterexample : Format.formatter -> counterexample -> unit
