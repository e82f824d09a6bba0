(** Simple behavioral refinement in SEQ (Def 2.4), decided by a simulation
    game.

    Because WHILE programs are deterministic (Def 6.1), the unlabeled
    fragment of any SEQ execution is a straight line ({!Core.line_end}), and
    the environment's choices are recorded inside the trace labels
    (read values, gained/dropped permissions, fresh memory values).  Hence
    on the finite domain, step-wise label matching — a simulation — decides
    trace-set inclusion exactly:

    - every instantiated labeled move of the target must be answered by the
      source emitting a ⊑-greater label (the environment parts of which are
      copied from the target's label),
    - at every point the target's partial behaviors ⟨ε, prt(F)⟩ must be
      matched, which amounts to [F_tgt ⊆ F_src] along the unlabeled lines,
    - a source that reaches ⊥ by unlabeled steps matches everything
      (⟨tr·_, _⟩ ⊑ ⟨tr, ⊥⟩),
    - termination must be matched with [v ⊑ v'], [F ⊆ F'], [M ⊑ M'].

    The set of reachable pairs is explored, then a greatest fixpoint prunes
    pairs whose obligations fail — sound for the safety-style (partial,
    non-termination-preserving) refinement of the paper.

    The game is played on {!Core} configuration ids and solved by
    {!Pair_graph.solve}; a domain the core cannot pack raises
    {!Lang.Packed.Unpackable} before any root is built.  Each pair
    recomputes the source's answers to the target's moves; nothing is
    shared between pairs but the {!Core} memos.  The set-based reference
    of the same game lives in the test-only [Seq_ref] library. *)

open Lang

type pair = { tgt : Config.t; src : Config.t }

(* The game over {!Core} configuration ids, played on {!Pair_graph}
   with commitment mask 0.  Lines and move lists are memoized per id,
   and the source answers each target label from its id by
   {!Core.answer}; the written-set and released-memory conditions of the
   simple game are checked here.  [analyzer core] is a pair's
   [analyze]. *)
let analyzer (core : Core.t) : Pair_graph.sink -> int -> int -> int -> bool =
  (* the conditions the simple game puts on a label's annotations,
     beyond those {!Core.answer} checks *)
  let respond pt l : Core.point =
    let c = Core.point_id pt in
    if
      (Core.is_acquire core l || Core.is_release core l)
      && (Core.label_written core l land lnot (Core.written_mask core c) <> 0
         || (Core.is_release core l && Core.release_excess core l c <> 0))
    then Core.No
    else Core.answer core pt l
  in
  (* The source at point [pt] answers labels [i..] of [labs]; [next_t]
     is the target's successor id (-1 for ⊥).  The answer goes to
     [sink]. *)
  let rec consume sink (pt : Core.point) (labs : int array) i (next_t : int)
      =
    match pt with
    | Core.No -> Pair_graph.const sink false
    | Core.Bot -> Pair_graph.const sink true
    | Core.Plain sid ->
      if i = Array.length labs then
        if next_t >= 0 then Pair_graph.dep sink 0 next_t sid
        else
          Pair_graph.const sink
            (match Core.line_end core sid with Core.L_bot -> true | _ -> false)
      else (
        match Core.line_end core sid with
        | Core.L_bot -> Pair_graph.const sink true
        | Core.L_label ->
          consume sink
            (respond (Core.Plain (Core.line_next core sid)) labs.(i))
            labs (i + 1) next_t
        | Core.L_term _ | Core.L_diverge -> Pair_graph.const sink false)
    | Core.Pend_rel _ | Core.Pend_acq _ ->
      if i = Array.length labs then Pair_graph.const sink false
      else consume sink (respond pt labs.(i)) labs (i + 1) next_t
  in
  (* The local obligations, with one answer per instantiated target
     move sent to [sink]. *)
  fun sink _ (tid : int) (sid : int) ->
    let et = Core.line_end core tid and es = Core.line_end core sid in
    if es = Core.L_bot then true
    else if
      Core.line_wmax_mask core tid land lnot (Core.line_wmax_mask core sid)
      <> 0
    then false
    else
      match et, es with
      | Core.L_bot, _ -> false
      | Core.L_diverge, _ -> true
      | Core.L_term v, Core.L_term v' ->
        let t' = Core.line_next core tid and s' = Core.line_next core sid in
        Value.le v v'
        && Core.written_mask core t' land lnot (Core.written_mask core s') = 0
        && Core.mem_le core (Core.mem_id core t') (Core.mem_id core s')
      | Core.L_label, Core.L_label ->
        let t' = Core.line_next core tid in
        let s' = Core.Plain (Core.line_next core sid) in
        let labs = Core.moves_labels core t' in
        let nexts = Core.moves_next core t' in
        for k = 0 to Array.length labs - 1 do
          consume sink s' (Core.list_labels core labs.(k)) 0 nexts.(k)
        done;
        true
      | (Core.L_term _ | Core.L_label), _ -> false

let root_ids core (roots : pair list) =
  List.map (fun p -> (0, Core.intern core p.tgt, Core.intern core p.src)) roots

let solve ?budget (core : Core.t) (roots : pair list) : bool * int =
  let holds, explored, _ =
    Pair_graph.solve ?budget ~analyze:(analyzer core) (root_ids core roots)
  in
  (holds, explored)

(** Decide simple behavioral refinement from a set of initial configuration
    pairs (target, source) that share P, F, M, also reporting the number of
    simulation pairs explored. *)
let check_pairs_count ?budget (d : Domain.t) (roots : pair list) : bool * int =
  solve ?budget (Core.create d) roots

let check_pairs ?budget (d : Domain.t) (roots : pair list) : bool =
  fst (check_pairs_count ?budget d roots)

(** Initial configuration pairs for Def 2.4's "for every P, F, M".
    [quantify_written] additionally ranges the initial F over all subsets
    (all refinement conditions are monotone in a common initial F, so
    F = ∅ is the strongest instance; the flag exists for assurance
    testing). *)
let initial_pairs ?(quantify_written = false) (d : Domain.t)
    ~(src : Prog.state) ~(tgt : Prog.state) : pair list =
  let perms = Domain.subsets d.Domain.na_locs in
  let writtens =
    if quantify_written then Domain.subsets d.Domain.na_locs
    else [ Loc.Set.empty ]
  in
  let mems = Domain.memories d in
  List.concat_map
    (fun perm ->
      List.concat_map
        (fun written ->
          List.map
            (fun mem ->
              {
                tgt = Config.make ~perm ~written ~mem tgt;
                src = Config.make ~perm ~written ~mem src;
              })
            mems)
        writtens)
    perms

(* Symmetry reduction: keep one initial environment per orbit of the
   location renamings fixing both programs.  Verdict-preserving,
   count-changing — opt-in only (goldens pin unreduced pair counts). *)
let filter_symmetry ~symmetry (d : Domain.t) ~(stmts : Stmt.t list)
    (roots : pair list) : pair list =
  if not symmetry then roots
  else
    match Core.Symmetry.automorphisms d stmts with
    | [] -> roots
    | autos ->
      List.filter
        (fun p ->
          Core.Symmetry.minimal_env autos ~perm:p.tgt.Config.perm
            ~written:p.tgt.Config.written ~mem:p.tgt.Config.mem)
        roots

(** The initial pairs of a program pair, reduced by symmetry, with the
    core to solve them on.  The mixing check and {!Core.create} run
    first, so a domain too large to pack raises
    {!Lang.Packed.Unpackable} before any root is built. *)
let program_roots ?quantify_written ~symmetry (d : Domain.t) ~(src : Stmt.t)
    ~(tgt : Stmt.t) : Core.t * pair list =
  Config.check_no_mixing [ src; tgt ];
  let core = Core.create d in
  ( core,
    initial_pairs ?quantify_written d ~src:(Prog.init src) ~tgt:(Prog.init tgt)
    |> filter_symmetry ~symmetry d ~stmts:[ src; tgt ] )

(** Like {!check}, also reporting the number of simulation pairs explored
    (the SEQ analogue of a state count, for sweep statistics). *)
let check_count ?quantify_written ?(symmetry = false) ?budget (d : Domain.t)
    ~(src : Stmt.t) ~(tgt : Stmt.t) : bool * int =
  let core, roots = program_roots ?quantify_written ~symmetry d ~src ~tgt in
  solve ?budget core roots

(** [check d ~src ~tgt] decides [σ_tgt ⊑ σ_src] (Def 2.4) over the finite
    domain: SEQ simple behavioral refinement for every initial permission
    set, written set, and memory.  [symmetry] (default off) explores one
    initial environment per location-renaming orbit. *)
let check ?quantify_written ?symmetry ?budget (d : Domain.t) ~(src : Stmt.t)
    ~(tgt : Stmt.t) : bool =
  fst (check_count ?quantify_written ?symmetry ?budget d ~src ~tgt)

(** Budgeted three-valued form of {!check}: [Unknown] on budget
    exhaustion, [Mixed_access], or any other trapped exception. *)
let check_verdict ?quantify_written ?symmetry ?budget (d : Domain.t)
    ~(src : Stmt.t) ~(tgt : Stmt.t) : unit Engine.Verdict.t =
  Engine.Verdict.run (fun () ->
      Engine.Verdict.of_bool
        (check ?quantify_written ?symmetry ?budget d ~src ~tgt))

(* ------------------------------------------------------------------ *)
(* Counterexample extraction                                            *)
(* ------------------------------------------------------------------ *)

type counterexample = {
  initial : pair;  (** the failing initial configuration pair *)
  trace : Event.t list;  (** target labels leading to the failure *)
  failing : pair;  (** the pair at which matching breaks *)
  reason : string;
}

(* Why pair (t, s) fails locally, from its lines. *)
let describe_local (core : Core.t) t s : string =
  let pk = Core.packed core in
  let set = Packed.set_of_mask pk in
  let wt = Core.line_wmax_mask core t and ws = Core.line_wmax_mask core s in
  if wt land lnot ws <> 0 then
    Fmt.str
      "partial behavior mismatch: target writes %a but the source can only \
       reach written set %a"
      Loc.Set.pp (set wt) Loc.Set.pp (set ws)
  else
    match Core.line_end core t, Core.line_end core s with
    | Core.L_bot, _ -> "the target reaches ⊥ but the source cannot"
    | Core.L_term v, Core.L_term v' ->
      let t' = Core.line_next core t and s' = Core.line_next core s in
      let mem id = Packed.mem_of_id pk (Core.mem_id core id) in
      Fmt.str
        "termination mismatch: target trm(%a,%a,%a) vs source trm(%a,%a,%a)"
        Value.pp v Loc.Set.pp
        (set (Core.written_mask core t'))
        (Loc.Map.pp Value.pp) (mem t') Value.pp v' Loc.Set.pp
        (set (Core.written_mask core s'))
        (Loc.Map.pp Value.pp) (mem s')
    | Core.L_term _, _ -> "the target terminates but the source cannot"
    | Core.L_label, _ ->
      "the target performs a labeled action the source cannot answer"
    | Core.L_diverge, _ -> "unexpected divergence mismatch"

(** Extract a counterexample when [check_pairs] fails: the target-side
    trace of an unmatched behavior plus a description of the final
    mismatch.  Returns [None] when refinement holds.  The walk follows
    dead pairs of the solved graph, re-analyzing each into a fresh sink
    to line its answers up with the target's moves. *)
let find_counterexample ?budget (d : Domain.t) (roots : pair list) :
    counterexample option =
  let core = Core.create d in
  let analyze = analyzer core in
  let ids = root_ids core roots in
  let _, _, alive = Pair_graph.solve ?budget ~analyze ids in
  match
    List.find_opt (fun (_, (c, t, s)) -> not (alive c t s))
      (List.combine roots ids)
  with
  | None -> None
  | Some (initial, (_, t, s)) ->
    let rec walk t s trace fuel =
      let stop trace reason =
        Some
          {
            initial;
            trace = List.rev trace;
            failing = { tgt = Core.cfg core t; src = Core.cfg core s };
            reason;
          }
      in
      let sink = Pair_graph.sink () in
      if fuel = 0 then stop trace "deep mismatch (walk fuel exhausted)"
      else if not (analyze sink 0 t s) then stop trace (describe_local core t s)
      else
        (* answer [k] is the source's answer to target move [k], and a
           pair with answers ends its line at a labeled step *)
        let labs =
          match Core.line_end core t with
          | Core.L_label -> Core.moves_labels core (Core.line_next core t)
          | _ -> [||]
        in
        let rec first_bad k = function
          | Pair_graph.Const false :: _ ->
            let evs = Core.labels core labs.(k) in
            stop (List.rev_append evs trace)
              (Fmt.str "the source cannot answer the target action %a"
                 Event.pp_trace evs)
          | Pair_graph.Dep (c, t', s') :: _ when not (alive c t' s') ->
            walk t' s' (List.rev_append (Core.labels core labs.(k)) trace)
              (fuel - 1)
          | _ :: answers -> first_bad (k + 1) answers
          | [] -> stop trace "internal: no failing dependency found"
        in
        first_bad 0 (Pair_graph.answers sink)
    in
    walk t s [] 1000

let pp_counterexample ppf (c : counterexample) =
  Fmt.pf ppf
    "@[<v>counterexample (initial P=%a, M=%a):@ target trace: %a@ %s@]"
    Loc.Set.pp c.initial.tgt.Config.perm (Loc.Map.pp Value.pp)
    c.initial.tgt.Config.mem Event.pp_trace c.trace c.reason
