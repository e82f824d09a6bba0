(** Simple behavioral refinement in SEQ (Def 2.4), decided by a simulation
    game.

    Because WHILE programs are deterministic (Def 6.1), the unlabeled
    fragment of any SEQ execution is a straight line ({!Config.line}), and
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

    Two solvers decide the game: the set-based reference ({!Slow}, which
    also drives counterexample extraction) and the fast path over
    {!Core} configuration ids, whose pair graph {!Pair_graph.solve}
    explores and prunes with the same pair set, order and budget spend
    points.  Each pair recomputes the source's answers to the target's
    moves; nothing is shared between pairs but the {!Core} memos. *)

open Lang

type pair = { tgt : Config.t; src : Config.t }

let compare_pair a b =
  let c = Config.compare a.tgt b.tgt in
  if c <> 0 then c else Config.compare a.src b.src

module Pair_map = Map.Make (struct
  type t = pair
  let compare = compare_pair
end)

let mem_le (d : Domain.t) m1 m2 =
  List.for_all
    (fun x ->
      Value.le
        (Loc.Map.find_default ~default:Value.zero x m1)
        (Loc.Map.find_default ~default:Value.zero x m2))
    d.Domain.na_locs

(* The source's position while answering the labels of one target move.
   RMWs and acquire-release fences emit two labels atomically; the pending
   constructors hold the forced second half. *)
type src_point =
  | Plain of Config.t
  | Pend_rel of Event.rel_kind * Config.t  (* release half of an RMW due *)
  | Pend_acq of Event.acq_kind * Config.t
      (* acquire half of an acq-rel/SC fence due *)

(* Outcome of the source answering one target move. *)
type answer =
  | Const of bool
  | Dep of pair  (* holds iff this pair holds *)

(* Answer one target label from a source configuration that sits at a
   labeled step (caller has advanced the line).  Returns the successor
   point, [`Bot] if the source emits the label and then moves to ⊥ (which
   matches every continuation), or [`No] on mismatch. *)
let respond1 (scfg : Config.t) (ev : Event.t) :
    [ `Ok of src_point | `Bot | `No ] =
  let open Event in
  match ev, Prog.step scfg.Config.prog with
  | Choose v, Prog.Choice f -> `Ok (Plain { scfg with prog = f v })
  | Rlx_read (x, v), Prog.Do_read (Mode.Rrlx, y, f) when Loc.equal x y ->
    `Ok (Plain { scfg with prog = f v })
  | Rlx_write (x, vt), Prog.Do_write (Mode.Wrlx, y, vs, p) when Loc.equal x y ->
    if Value.le vt vs then `Ok (Plain { scfg with prog = p }) else `No
  | Out vt, Prog.Do_out (vs, p) ->
    if Value.le vt vs then `Ok (Plain { scfg with prog = p }) else `No
  | Acq a, shape ->
    (* label ⊑ requires equal P, P', V and F_tgt ⊆ F_src *)
    if
      not
        (Loc.Set.equal a.apre scfg.Config.perm
         && Loc.Set.subset a.awritten scfg.Config.written)
    then `No
    else
      let continue prog' =
        `Ok
          (Plain
             (Config.apply_acquire { scfg with prog = prog' } ~post:a.apost
                ~vnew:a.agained))
      in
      (match a.akind, shape with
       | Acq_read (x, v), Prog.Do_read (Mode.Racq, y, f) when Loc.equal x y ->
         continue (f v)
       | Acq_fence, Prog.Do_fence (Mode.Facq, p) -> continue p
       | Acq_update (x, v), Prog.Do_update (y, f) when Loc.equal x y ->
         (match f v with
          | Prog.Upd_fault -> `Bot
          | Prog.Upd_read_only p -> continue p
          | Prog.Upd_write (v_new, p) ->
            let cfg' =
              Config.apply_acquire { scfg with prog = p } ~post:a.apost
                ~vnew:a.agained
            in
            `Ok (Pend_rel (Rel_update (x, v_new), cfg')))
       | _, _ -> `No)
  | Rel r, shape ->
    if
      not
        (Loc.Set.equal r.rpre scfg.Config.perm
         && Loc.Set.subset r.rwritten scfg.Config.written)
    then `No
    else
      (* V_tgt ⊑ V_src pointwise on the recorded (pre-release) permission
         set; both sides share P so the domains coincide. *)
      let src_released =
        Loc.Set.fold
          (fun y acc -> Loc.Map.add y (Config.read_mem scfg y) acc)
          scfg.Config.perm Loc.Map.empty
      in
      let mem_cond =
        Loc.Map.for_all
          (fun y vt ->
            match Loc.Map.find_opt y src_released with
            | Some vs -> Value.le vt vs
            | None -> false)
          r.rreleased
      in
      if not mem_cond then `No
      else
        let continue prog' =
          `Ok (Plain (Config.apply_release { scfg with prog = prog' } ~post:r.rpost))
        in
        (match r.rkind, shape with
         | Rel_write (x, vt), Prog.Do_write (Mode.Wrel, y, vs, p)
           when Loc.equal x y ->
           if Value.le vt vs then continue p else `No
         | Rel_fence, Prog.Do_fence (Mode.Frel, p) -> continue p
         | Rel_fence, Prog.Do_fence (Mode.Facqrel, p) ->
           (* acq-rel fence: release half now, acquire half pending *)
           `Ok
             (Pend_acq
                (Event.Acq_fence,
                 Config.apply_release { scfg with prog = p } ~post:r.rpost))
         | Rel_fence_sc, Prog.Do_fence (Mode.Fsc, p) ->
           `Ok
             (Pend_acq
                (Event.Acq_fence_sc,
                 Config.apply_release { scfg with prog = p } ~post:r.rpost))
         | _, _ -> `No)
  | (Choose _ | Rlx_read _ | Rlx_write _ | Out _), _ -> `No

(* Answer a pending second half. *)
let respond_pending (point : src_point) (ev : Event.t) :
    [ `Ok of src_point | `Bot | `No ] =
  let open Event in
  match point, ev with
  | Pend_rel (skind, scfg), Rel r ->
    if
      not
        (Loc.Set.equal r.rpre scfg.Config.perm
         && Loc.Set.subset r.rwritten scfg.Config.written)
    then `No
    else
      let src_released =
        Loc.Set.fold
          (fun y acc -> Loc.Map.add y (Config.read_mem scfg y) acc)
          scfg.Config.perm Loc.Map.empty
      in
      let mem_cond =
        Loc.Map.for_all
          (fun y vt ->
            match Loc.Map.find_opt y src_released with
            | Some vs -> Value.le vt vs
            | None -> false)
          r.rreleased
      in
      let kind_ok =
        match r.rkind, skind with
        | Rel_update (x, vt), Rel_update (y, vs) -> Loc.equal x y && Value.le vt vs
        | _, _ -> false
      in
      if mem_cond && kind_ok then
        `Ok (Plain (Config.apply_release scfg ~post:r.rpost))
      else `No
  | Pend_acq (k, scfg), Acq a ->
    if
      not
        (Loc.Set.equal a.apre scfg.Config.perm
         && Loc.Set.subset a.awritten scfg.Config.written
         && Event.compare_kinds_a a.akind k = 0)
    then `No
    else `Ok (Plain (Config.apply_acquire scfg ~post:a.apost ~vnew:a.agained))
  | (Plain _ | Pend_rel _ | Pend_acq _), _ -> `No

(* Have the source answer the label list of one target move, advancing
   through its unlabeled line between moves. *)
let rec consume (point : src_point) (evs : Event.t list)
    (next_t : Config.next) : answer =
  match evs with
  | [] ->
    (match point with
     | Pend_rel _ | Pend_acq _ ->
       (* the source owes a label the target will not produce *)
       Const false
     | Plain scfg ->
       (match next_t with
        | Config.Bot ->
          (* target ⊥ now: source must reach ⊥ by unlabeled steps *)
          let ln = Config.line scfg in
          Const (ln.Config.line_end = Config.L_bot)
        | Config.Cont tcfg' -> Dep { tgt = tcfg'; src = scfg }))
  | ev :: rest ->
    (match point with
     | Pend_rel _ | Pend_acq _ ->
       (match respond_pending point ev with
        | `Ok point' -> consume point' rest next_t
        | `Bot -> Const true
        | `No -> Const false)
     | Plain scfg ->
       let ln = Config.line scfg in
       (match ln.Config.line_end with
        | Config.L_bot -> Const true  (* ⟨matched-prefix, ⊥⟩ matches all *)
        | Config.L_label scfg' ->
          (match respond1 scfg' ev with
           | `Ok point' -> consume point' rest next_t
           | `Bot -> Const true
           | `No -> Const false)
        | Config.L_term _ | Config.L_diverge -> Const false))

(* Local obligations and dependencies of a pair. *)
type node = {
  local_ok : bool;
  deps : answer list;  (* one per instantiated target move *)
}

let analyze (d : Domain.t) (p : pair) : node =
  let ln_t = Config.line p.tgt in
  let ln_s = Config.line p.src in
  if ln_s.Config.line_end = Config.L_bot then { local_ok = true; deps = [] }
  else if not (Loc.Set.subset ln_t.Config.written_max ln_s.Config.written_max)
  then { local_ok = false; deps = [] }
  else
    match ln_t.Config.line_end with
    | Config.L_bot -> { local_ok = false; deps = [] }
    | Config.L_diverge -> { local_ok = true; deps = [] }
    | Config.L_term (v, tcfg') ->
      (match ln_s.Config.line_end with
       | Config.L_term (v', scfg') ->
         let ok =
           Value.le v v'
           && Loc.Set.subset tcfg'.Config.written scfg'.Config.written
           && mem_le d tcfg'.Config.mem scfg'.Config.mem
         in
         { local_ok = ok; deps = [] }
       | Config.L_bot | Config.L_diverge | Config.L_label _ ->
         { local_ok = false; deps = [] })
    | Config.L_label tcfg' ->
      (match ln_s.Config.line_end with
       | Config.L_label scfg' ->
         let answers =
           List.map
             (fun (evs, next_t) -> consume (Plain scfg') evs next_t)
             (Config.moves d tcfg')
         in
         { local_ok = true; deps = answers }
       | Config.L_bot | Config.L_term _ | Config.L_diverge ->
         { local_ok = false; deps = [] })

(* Explore the reachable pair graph, then prune to the greatest fixpoint.
   Shared by the boolean checks (which only need [alive]) and
   counterexample extraction (which also walks [nodes]).  [budget] is
   charged one state per explored pair and polled along both phases; with
   the default unlimited budget every call is a no-op and the result is
   identical to the unbudgeted checker. *)
let solve ?(budget = Engine.Budget.unlimited) (d : Domain.t)
    (roots : pair list) : node Pair_map.t * bool Pair_map.t =
  (* Phase 1: explore the reachable pair graph. *)
  let nodes : node Pair_map.t ref = ref Pair_map.empty in
  let rec explore p =
    if not (Pair_map.mem p !nodes) then begin
      Engine.Budget.spend_state budget;
      (* insert a stub first to cut cycles *)
      nodes := Pair_map.add p { local_ok = true; deps = [] } !nodes;
      let node = analyze d p in
      nodes := Pair_map.add p node !nodes;
      List.iter
        (function Dep q -> explore q | Const _ -> ())
        node.deps
    end
  in
  List.iter explore roots;
  (* Phase 2: prune to the greatest fixpoint. *)
  let alive = ref (Pair_map.map (fun _ -> true) !nodes) in
  let changed = ref true in
  while !changed do
    changed := false;
    Pair_map.iter
      (fun p node ->
        Engine.Budget.check budget;
        if Pair_map.find p !alive then begin
          let ok =
            node.local_ok
            && List.for_all
                 (function
                   | Const b -> b
                   | Dep q -> Pair_map.find q !alive)
                 node.deps
          in
          if not ok then begin
            alive := Pair_map.add p false !alive;
            changed := true
          end
        end)
      !nodes
  done;
  (!nodes, !alive)

(** The set-based reference checker: recomputes every line and move list
    and runs the greatest fixpoint by repeated full passes.  Kept as the
    differential-testing oracle for the fast path below — same game,
    none of the caching layers. *)
module Slow = struct
  let check_pairs_count ?budget (d : Domain.t) (roots : pair list) :
      bool * int =
    let nodes, alive = solve ?budget d roots in
    ( List.for_all (fun p -> Pair_map.find p alive) roots,
      Pair_map.cardinal nodes )

  let check_pairs ?budget (d : Domain.t) (roots : pair list) : bool =
    fst (check_pairs_count ?budget d roots)
end

(* Fast path: the game over {!Core} configuration ids, solved by
   {!Pair_graph} with commitment mask 0.  Lines and move lists are
   memoized per id, and the source answers each target label from its
   id by {!Core.answer}; the written-set and released-memory conditions
   of the simple game are checked here. *)
let solve_fast ?budget (core : Core.t) (roots : pair list) : bool * int =
  (* the conditions [respond1]/[respond_pending] put on a label's
     annotations, beyond those {!Core.answer} checks *)
  let respond pt l : Core.point =
    let c = Core.point_id pt in
    if
      (Core.is_acquire core l || Core.is_release core l)
      && (Core.label_written core l land lnot (Core.written_mask core c) <> 0
         || (Core.is_release core l && Core.release_excess core l c <> 0))
    then Core.No
    else Core.answer core pt l
  in
  (* Mirrors [consume]: the source at point [pt] answers labels [i..] of
     [labs]; [next_t] is the target's successor id (-1 for ⊥).  The
     answer goes to [sink]. *)
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
  (* [analyze] at the id level: the local obligations, with one answer
     per instantiated target move sent to [sink]. *)
  let analyze sink _ (tid : int) (sid : int) : bool =
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
  in
  Pair_graph.solve ?budget ~analyze
    (List.map
       (fun p ->
         let tid = Core.intern core p.tgt in
         (0, tid, Core.intern core p.src))
       roots)

(** Decide simple behavioral refinement from a set of initial configuration
    pairs (target, source) that share P, F, M, also reporting the number of
    simulation pairs explored.  Runs the fast hash-consed path when the
    domain and the roots pack; falls back to {!Slow} otherwise. *)
let check_pairs_count ?budget (d : Domain.t) (roots : pair list) : bool * int =
  match Core.create d with
  | None -> Slow.check_pairs_count ?budget d roots
  | Some core ->
    (* Validate the roots up front: packability is closed under
       reachability (permissions shrink on release, grow within the
       domain on acquire; written sets stay under the permissions), so a
       packable root set means the whole run packs. *)
    (match
       List.iter
         (fun p ->
           ignore (Core.intern core p.tgt);
           ignore (Core.intern core p.src))
         roots
     with
     | () -> solve_fast ?budget core roots
     | exception Packed.Unpackable -> Slow.check_pairs_count ?budget d roots)

let check_pairs ?budget (d : Domain.t) (roots : pair list) : bool =
  fst (check_pairs_count ?budget d roots)

(** Budgeted three-valued form of {!check_pairs}: budget exhaustion and
    trapped exceptions become [Unknown] instead of escaping. *)
let check_pairs_verdict ?budget (d : Domain.t) (roots : pair list) :
    unit Engine.Verdict.t =
  Engine.Verdict.run (fun () ->
      Engine.Verdict.of_bool (check_pairs ?budget d roots))

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

(** [check d ~src ~tgt] decides [σ_tgt ⊑ σ_src] (Def 2.4) over the finite
    domain: SEQ simple behavioral refinement for every initial permission
    set, written set, and memory.  [symmetry] (default off) explores one
    initial environment per location-renaming orbit. *)
let check ?quantify_written ?(symmetry = false) ?budget (d : Domain.t)
    ~(src : Stmt.t) ~(tgt : Stmt.t) : bool =
  Config.check_no_mixing [ src; tgt ];
  let roots =
    initial_pairs ?quantify_written d ~src:(Prog.init src) ~tgt:(Prog.init tgt)
    |> filter_symmetry ~symmetry d ~stmts:[ src; tgt ]
  in
  check_pairs ?budget d roots

(** Like {!check}, also reporting the number of simulation pairs explored
    (the SEQ analogue of a state count, for sweep statistics). *)
let check_count ?quantify_written ?(symmetry = false) ?budget (d : Domain.t)
    ~(src : Stmt.t) ~(tgt : Stmt.t) : bool * int =
  Config.check_no_mixing [ src; tgt ];
  let roots =
    initial_pairs ?quantify_written d ~src:(Prog.init src) ~tgt:(Prog.init tgt)
    |> filter_symmetry ~symmetry d ~stmts:[ src; tgt ]
  in
  check_pairs_count ?budget d roots

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

let describe_local (d : Domain.t) (p : pair) : string =
  let ln_t = Config.line p.tgt in
  let ln_s = Config.line p.src in
  if not (Loc.Set.subset ln_t.Config.written_max ln_s.Config.written_max) then
    Fmt.str
      "partial behavior mismatch: target writes %a but the source can only \
       reach written set %a"
      Loc.Set.pp ln_t.Config.written_max Loc.Set.pp ln_s.Config.written_max
  else
    match ln_t.Config.line_end, ln_s.Config.line_end with
    | Config.L_bot, _ -> "the target reaches ⊥ but the source cannot"
    | Config.L_term (v, tcfg), Config.L_term (v', scfg) ->
      Fmt.str
        "termination mismatch: target trm(%a,%a,%a) vs source trm(%a,%a,%a)"
        Value.pp v Loc.Set.pp tcfg.Config.written (Loc.Map.pp Value.pp)
        tcfg.Config.mem Value.pp v' Loc.Set.pp scfg.Config.written
        (Loc.Map.pp Value.pp) scfg.Config.mem
    | Config.L_term _, _ -> "the target terminates but the source cannot"
    | Config.L_label _, _ ->
      "the target performs a labeled action the source cannot answer"
    | Config.L_diverge, _ -> "unexpected divergence mismatch"

(** Extract a counterexample when [check_pairs] fails: the target-side
    trace of an unmatched behavior plus a description of the final
    mismatch.  Returns [None] when refinement holds. *)
let find_counterexample ?budget (d : Domain.t) (roots : pair list) :
    counterexample option =
  (* counterexample extraction stays on the reference solver: it walks
     [nodes], which only the Pair_map phase produces *)
  let nodes, alive = solve ?budget d roots in
  match List.find_opt (fun p -> not (Pair_map.find p alive)) roots with
  | None -> None
  | Some root ->
    (* walk dead pairs, collecting the target labels of failing moves *)
    let rec walk p trace fuel =
      let node = Pair_map.find p nodes in
      if fuel = 0 then
        Some { initial = root; trace = List.rev trace; failing = p;
               reason = "deep mismatch (walk fuel exhausted)" }
      else if not node.local_ok then
        Some { initial = root; trace = List.rev trace; failing = p;
               reason = describe_local d p }
      else begin
        (* align deps with the instantiated target moves *)
        let moves =
          match (Config.line p.tgt).Config.line_end with
          | Config.L_label tcfg' -> Config.moves d tcfg'
          | _ -> []
        in
        let rec first_bad deps moves =
          match deps, moves with
          | Const false :: _, (evs, _) :: _ ->
            Some
              { initial = root; trace = List.rev (List.rev_append evs trace);
                failing = p;
                reason =
                  Fmt.str "the source cannot answer the target action %a"
                    Event.pp_trace evs }
          | Dep q :: _, (evs, _) :: _ when not (Pair_map.find q alive) ->
            walk q (List.rev_append evs trace) (fuel - 1)
          | _ :: deps', _ :: moves' -> first_bad deps' moves'
          | _, _ ->
            Some { initial = root; trace = List.rev trace; failing = p;
                   reason = "internal: no failing dependency found" }
        in
        first_bad node.deps moves
      end
    in
    walk root [] 1000

let pp_counterexample ppf (c : counterexample) =
  Fmt.pf ppf
    "@[<v>counterexample (initial P=%a, M=%a):@ target trace: %a@ %s@]"
    Loc.Set.pp c.initial.tgt.Config.perm (Loc.Map.pp Value.pp)
    c.initial.tgt.Config.mem Event.pp_trace c.trace c.reason
