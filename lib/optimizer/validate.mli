(** The one refinement check, and translation validation on top of it.

    Every front end — [seqcheck], seqd, the fuzz oracle, the E1/E2 and E5
    sweeps — asks "does TGT refine SRC?" through {!run}, which answers it
    in one order:
    + with [fast_path], a static certificate: the pipeline replay
      ({!Certify}), then the abstract-interpretation certifier
      ({!Certabs}).  Either proves the advanced notion (Def 3.3) with no
      enumeration;
    + then the simple game (Def 2.4), and the Fig 6 advanced game only if
      the simple one fails, since simple refinement implies advanced
      (Prop 3.4).  After a static proof the simple game still runs, to
      tell the two notions apart; with [Advanced_only] it is skipped;
    + under a hardware backend, behavior-set inclusion between the two
      explorations instead, with no static tier.

    Where the paper certifies the optimizer once and for all in Coq (via a
    simulation in SEQ), {!validate} certifies each run: the output must
    weakly behaviorally refine the input in SEQ over the finite domain
    (Def 3.3); by adequacy (Thm 6.2) this entails contextual refinement
    in PS_na.  The answer is route-independent (cross-checked by the
    qcheck suite and over the catalog); [proof] records which route
    fired. *)

open Lang

(** How a definite answer was established: [Static cert] — the
    pass-replay certificate proved it with no enumeration; [Static_abs
    cert] — the abstract-interpretation certifier ({!Certabs}) proved it
    from dataflow facts when no pipeline replay reached the target;
    [Enumerated] — the games (or a hardware exploration) ran.  A replay
    certificate cites the pass names and rewrite sites involved, in the
    same {!Analysis.Path} coordinates the linter uses; an abstract
    certificate cites the local rewrite rules that bridge source and
    target. *)
type proof =
  | Static of Certify.cert
  | Static_abs of Certabs.cert
  | Enumerated

(** Collapse a proof to the engine's provenance label. *)
val provenance : proof -> Engine.Verdict.provenance

(** The notions {!run} decides: [Both] (Def 2.4, then Def 3.3 if it
    fails), or [Advanced_only] (Def 3.3 alone, [seqcheck --advanced-only]
    and the fuzz oracle). *)
type notion = Both | Advanced_only

type answer =
  | Refines_simple
      (** Def 2.4 holds, hence Def 3.3; under a hardware backend,
          behavior inclusion holds *)
  | Refines_advanced  (** Def 3.3 holds; Def 2.4 fails or was not asked *)
  | Refuted
  | Undecided of string
      (** no answer, for the reason given: ["over 16 non-atomic
          locations"], ["<machine>: truncated"], an unknown backend *)

type outcome = {
  answer : answer;
  proof : proof;  (** how a definite [answer] was established *)
  pairs : int;
      (** simulation pairs the SEQ games explored, simple plus advanced;
          0 when none ran *)
}

(** The [backend] name of SEQ itself (the default); every other name
    names a {!Backends.Registry} machine. *)
val seq_backend : string

(** [run ~src ~tgt ()] decides whether [tgt] refines [src], in the order
    above.  [values] is the finite domain's defined values (default
    {!Domain.default_values}); [fast_path] (default [true]) enables the
    static tier; [passes] is the pipeline {!Certify} replays (default
    {!Driver.all_passes}); [notion] defaults to [Both].  The {!Domain} is
    built only when a game runs.

    A domain of more than {!Lang.Packed.max_locs} non-atomic locations,
    a truncated hardware exploration and an unknown backend answer
    [Undecided].  [budget] (default unlimited, a no-op) bounds the games
    and explorations; on exhaustion {!Engine.Budget.Exhausted} escapes,
    as does {!Mixed_access} — callers trap both at their verdict
    boundary ({!Engine.Verdict.capture}, {!Engine.Sweep.run_verdict}). *)
val run :
  ?values:Value.t list ->
  ?backend:string ->
  ?notion:notion ->
  ?fast_path:bool ->
  ?passes:Driver.pass list ->
  ?budget:Engine.Budget.t ->
  src:Stmt.t ->
  tgt:Stmt.t ->
  unit ->
  outcome

(** [(simple, advanced)] of a definite answer.
    @raise Failure with the reason of an [Undecided] one. *)
val notions : answer -> bool * bool

type verdict = {
  valid : bool;  (** advanced refinement (Def 3.3) holds *)
  simple : bool;  (** the stronger §2 notion (Def 2.4) also holds *)
  proof : proof;  (** how [valid] was established *)
}

exception Mixed_access of Loc.t

(** Validate a transformation in SEQ: {!run} with both notions.
    @raise Failure on an [Undecided] answer. *)
val validate :
  ?values:Value.t list ->
  ?fast_path:bool ->
  ?passes:Driver.pass list ->
  ?budget:Engine.Budget.t ->
  src:Stmt.t ->
  tgt:Stmt.t ->
  unit ->
  verdict

(** Optimize, then {!validate} the result against the input. *)
val certified_optimize :
  ?passes:Driver.pass list ->
  ?values:Value.t list ->
  ?fast_path:bool ->
  ?budget:Engine.Budget.t ->
  Stmt.t ->
  Driver.report * verdict
