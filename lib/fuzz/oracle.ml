(** Pluggable differential oracles.

    Every oracle checks one cross-layer agreement contract on a single
    generated program; a [Some detail] result is a {e finding} — evidence
    that two layers of the system disagree.  All oracles are
    deterministic given the program (no RNG, no wall-clock-dependent
    output) and charge their exploration to the task budget
    ({!Engine.Budget.Exhausted} escapes and is trapped by the campaign's
    supervised sweep into an [Unknown]). *)

open Lang

type kind =
  | Pass_correct  (** each optimizer pass's output refines its input *)
  | Analysis_sound  (** static racy-access set covers SEQ's dynamic races *)
  | Lint_agree  (** a lint-clean program has no dynamic racy access *)
  | Baseline_env  (** single-thread SC behaviors ⊆ SEQ; DRF ⇒ catchfire=SC *)
  | Baseline_hw of string
      (** SC behaviors ⊆ the named hardware backend's (default tso) *)

let default_hw = "tso"

let all =
  [ Pass_correct; Analysis_sound; Lint_agree; Baseline_env;
    Baseline_hw default_hw ]

let name = function
  | Pass_correct -> "pass-correct"
  | Analysis_sound -> "analysis-sound"
  | Lint_agree -> "lint-agree"
  | Baseline_env -> "baseline-env"
  | Baseline_hw m -> if m = default_hw then "baseline-hw" else "baseline-hw:" ^ m

let of_string s =
  match List.find_opt (fun k -> name k = s) all with
  | Some _ as k -> k
  | None ->
    (* a non-default machine renders as "baseline-hw:<machine>" *)
    (match String.split_on_char ':' s with
     | [ "baseline-hw"; m ] when Backends.Registry.find m <> None ->
       Some (Baseline_hw m)
     | _ -> None)

(* ------------------------------------------------------------------ *)
(* Advanced-only refinement, the workhorse of pass checking: a static
   certificate when the pipeline replay reaches [tgt] or the abstract
   certifier bridges the gap, the Fig 6 enumeration otherwise.
   ({!Optimizer.Validate.validate} also decides the simple Def 2.4
   notion by enumeration, which fuzzing throughput cannot afford;
   soundness of a pass is the advanced notion.)  Routing fuzz traffic
   through both certifiers is deliberate: an unsound certificate would
   stop the campaign from refuting a planted bug, which the fixed-seed
   smoke test would flag. *)
let refines ~budget ~(src : Stmt.t) ~(tgt : Stmt.t) : bool =
  match Optimizer.Certify.attempt ~src ~tgt () with
  | Some _ -> true
  | None -> (
    match Optimizer.Certabs.attempt ~src ~tgt () with
    | Some _ -> true
    | None ->
      let d = Domain.of_stmts [ src; tgt ] in
      Seq_model.Advanced.check ~budget d ~src ~tgt)

let check_pass_correct ~budget (p : Stmt.t) : string option =
  let rec go = function
    | [] -> None
    | pass :: rest ->
      let tgt, rewrites, _, _ = Optimizer.Driver.run_pass pass p in
      if rewrites = 0 || Stmt.normalize tgt = Stmt.normalize p then go rest
      else if refines ~budget ~src:p ~tgt then go rest
      else
        Some
          (Printf.sprintf "%s output does not refine its input"
             (Optimizer.Driver.pass_name pass))
  in
  go Optimizer.Driver.all_passes

(* ------------------------------------------------------------------ *)
(* Exhaustive dynamic racy accesses: all (kind, loc) pairs of non-atomic
   accesses SEQ can perform without holding the permission, over every
   initial permission set and memory of the (2-valued, for tractability)
   domain.  The walk is over {!Seq_model.Core} ids, with successors from
   {!Seq_model.Core.moves_next} and a visited bitmap; it visits
   configurations in the order of the set-based walk in
   test/test_analysis.ml (the reference), charging the budget one state
   per configuration. *)
let dynamic_racy ~budget (p : Stmt.t) : ([ `Read | `Write ] * Loc.t) list =
  let d = Domain.of_stmts ~values:[ Value.Int 0; Value.Int 1 ] [ p ] in
  let core =
    match Seq_model.Core.create d with
    | Some c -> c
    | None -> raise Packed.Unpackable
  in
  let seen = ref (Bytes.make 64 '\000') in
  let acc = ref [] in
  let rec visit id =
    if id >= Bytes.length !seen then begin
      let grown = Bytes.make (2 * id) '\000' in
      Bytes.blit !seen 0 grown 0 (Bytes.length !seen);
      seen := grown
    end;
    if Bytes.get !seen id = '\000' then begin
      Engine.Budget.spend_state budget;
      Bytes.set !seen id '\001';
      let cfg = Seq_model.Core.cfg core id in
      (match Prog.step cfg.Seq_model.Config.prog with
       | Prog.Do_read (Mode.Rna, x, _)
         when not (Loc.Set.mem x cfg.Seq_model.Config.perm) ->
         acc := (`Read, x) :: !acc
       | Prog.Do_write (Mode.Wna, x, _, _)
         when not (Loc.Set.mem x cfg.Seq_model.Config.perm) ->
         acc := (`Write, x) :: !acc
       | _ -> ());
      Array.iter
        (fun next -> if next >= 0 then visit next)
        (Seq_model.Core.moves_next core id)
    end
  in
  List.iter
    (fun perm ->
      List.iter
        (fun mem ->
          visit
            (Seq_model.Core.intern core
               (Seq_model.Config.make ~perm ~mem (Prog.init p))))
        (Domain.memories d))
    (Domain.subsets d.Domain.na_locs);
  List.sort_uniq compare !acc

let kind_name = function `Read -> "read" | `Write -> "write"

let check_analysis_sound ~budget (p : Stmt.t) : string option =
  let static =
    List.map
      (fun a -> (a.Analysis.Perm.kind, a.Analysis.Perm.loc))
      (Analysis.Perm.racy_accesses p)
  in
  let dynamic = dynamic_racy ~budget p in
  match List.find_opt (fun pr -> not (List.mem pr static)) dynamic with
  | None -> None
  | Some (k, x) ->
    Some
      (Printf.sprintf "dynamic racy %s of %s not statically flagged"
         (kind_name k) (Loc.name x))

let check_lint_agree ~budget (p : Stmt.t) : string option =
  let diags = Optimizer.Lint.lint ~hints:false [ p ] in
  let race_flagged =
    List.exists
      (fun d ->
        match d.Optimizer.Lint.rule with
        | Optimizer.Lint.Racy_read | Optimizer.Lint.Racy_write
        | Optimizer.Lint.Mixed_access | Optimizer.Lint.Unordered_race -> true
        | _ -> false)
      diags
  in
  if race_flagged then None
  else
    match dynamic_racy ~budget p with
    | [] -> None
    | (k, x) :: _ ->
      Some
        (Printf.sprintf "lint-clean program has a dynamic racy %s of %s"
           (kind_name k) (Loc.name x))

(* ------------------------------------------------------------------ *)
(* One program as the oracles see it.  The SC exploration is the same
   for the baseline-env oracle and every baseline-hw variant, so it runs
   at most once per subject, on first demand.  A subject lives inside one
   campaign task, in one domain: nothing is shared across programs or
   workers.  Every SC and hardware exploration here stops at
   [max_explore_states]. *)
let max_explore_states = 20_000

type subject = { prog : Stmt.t; sc : Baselines.Sc.result Lazy.t }

let subject (p : Stmt.t) : subject =
  { prog = p; sc = lazy (Baselines.Sc.explore ~max_states:max_explore_states [ p ]) }

(* The shared exploration runs under no budget: it belongs to no one
   oracle.  An oracle that uses it checks its own [budget] first, then is
   charged the exploration's states, the total a fresh
   {!Backends.Registry.Sc_machine} run would charge, whether or not
   another oracle forced it before. *)
let charged_sc ~budget (s : subject) : Baselines.Sc.result =
  Engine.Budget.check budget;
  let r = Lazy.force s.sc in
  Engine.Budget.spend_state ~n:r.Baselines.Sc.states budget;
  r

(* ------------------------------------------------------------------ *)
(* Baseline envelope.  Single-thread SC executions are SEQ executions
   under the identity environment from the full-permission, zero-memory
   initial configuration, so every SC (return value, prints) behavior
   must appear among SEQ's terminal behaviors, and an SC ⊥ among SEQ's
   ⊥; and on race-free programs the catch-fire semantics must agree with
   SC exactly (the DRF guarantee).

   SEQ's side is {!Seq_model.Behavior.outcomes}: the Def 2.1 induction
   memoized on (fuel, configuration) and projected onto exactly those
   observations, so it never builds a trace.  It still branches over the
   environment's choices at every acquire, so programs above
   [baseline_env_max_size] are skipped, like SC-truncated ones: the
   envelope property is about complete behavior sets (docs/FUZZING.md). *)
let baseline_env_max_size = 20

(* The SEQ side is state-charged to the campaign budget; when that budget
   is unlimited, a loop-heavy mutant near the size gate could otherwise
   enumerate without bound.  Any explicit budget wins. *)
let baseline_env_default_states = 200_000

let check_baseline_env ~budget (s : subject) : string option =
  let p = s.prog in
  if Stmt.size p > baseline_env_max_size then None
  else
  let budget =
    if Engine.Budget.is_unlimited budget then
      Engine.Budget.make ~max_states:baseline_env_default_states ()
    else budget
  in
  let sc = Lazy.force s.sc in
  if sc.Baselines.Sc.truncated then None
  else begin
    let cf = Baselines.Catchfire.of_sc sc in
    if
      (not sc.Baselines.Sc.races)
      && not
           (Baselines.Sc.Behavior_set.equal cf.Baselines.Catchfire.behaviors
              sc.Baselines.Sc.behaviors)
    then Some "catch-fire disagrees with SC on a race-free program"
    else begin
      let d = Domain.of_stmts [ p ] in
      let core =
        match Seq_model.Core.create d with
        | Some c -> c
        | None -> raise Packed.Unpackable
      in
      let cfg =
        Seq_model.Config.make ~perm:(Domain.na_set d) (Prog.init p)
      in
      let fuel = (16 * Stmt.size p) + 64 in
      let seq = Seq_model.Behavior.outcomes ~budget core ~fuel cfg in
      let missing =
        Baselines.Sc.Behavior_set.to_seq sc.Baselines.Sc.behaviors
        |> Seq.find_map (function
             | Baselines.Sc.Bot ->
               if seq.Seq_model.Behavior.bot then None
               else Some "an erroneous (Bot) behavior"
             | Baselines.Sc.Ret [ (v, prints) ] ->
               if
                 Seq_model.Behavior.Outcome_set.mem (v, prints)
                   seq.Seq_model.Behavior.returns
               then None
               else
                 Some
                   (Fmt.str "return %a with %d print(s)" Value.pp v
                      (List.length prints))
             | Baselines.Sc.Ret _ -> None)
      in
      Option.map (fun what -> "SC behavior missing from SEQ enumeration: " ^ what)
        missing
    end
  end

(* ------------------------------------------------------------------ *)
(* Hardware envelope.  Every hardware backend only ever relaxes SC —
   store buffering and local reordering add interleavings, they never
   remove one — so the SC behavior set of a generated program must be
   included in the hardware machine's (the first link of the
   SC ⊆ TSO ⊆ ARMv8 chain the E15 grid pins on the catalog, here
   cross-checked on arbitrary generated programs).  Size-gated and
   truncation-skipped like {!check_baseline_env}: inclusion is a
   statement about complete behavior sets.  The SC side is the subject's
   shared exploration, charged to [budget] by {!charged_sc}. *)
let check_baseline_hw ~budget machine (s : subject) : string option =
  let p = s.prog in
  if Stmt.size p > baseline_env_max_size then None
  else
    let (module M : Backends.Backend.MACHINE) =
      match Backends.Registry.find machine with
      | Some m -> m
      | None -> invalid_arg ("Oracle.baseline-hw: unknown backend " ^ machine)
    in
    let sc = Backends.Registry.of_sc (charged_sc ~budget s) in
    if sc.Backends.Backend.truncated then None
    else
      let hw = M.explore ~max_states:max_explore_states ~budget [ p ] in
      if hw.Backends.Backend.truncated then None
      else if Backends.Backend.subset ~small:sc ~big:hw then None
      else Some ("SC behavior missing under " ^ M.name)

let check_subject (k : kind) ~budget (s : subject) : string option =
  match k with
  | Pass_correct -> check_pass_correct ~budget s.prog
  | Analysis_sound -> check_analysis_sound ~budget s.prog
  | Lint_agree -> check_lint_agree ~budget s.prog
  | Baseline_env -> check_baseline_env ~budget s
  | Baseline_hw m -> check_baseline_hw ~budget m s

let check (k : kind) ~budget (p : Stmt.t) : string option =
  check_subject k ~budget (subject p)
