(** Advanced behavioral refinement (§3): behavioral refinement up to a
    commitment set R (Fig 2) quantified over all oracles (Def 3.2/3.3),
    decided by the simulation of Fig 6.

    Compared to the simple game ({!Refine}):
    - the source may invoke UB {e later} than the target, provided it can
      reach ⊥ with no acquire event {e for every oracle} — environment
      choices (relaxed-read values, release permission drops, [choose]
      resolutions) are universally quantified ({!can_fail_universally});
    - release-write labels need not agree on the written-set/memory
      annotations; the disagreement becomes a {e commitment set} R of
      locations the source must write before it terminates or acquires
      (beh-rel-write);
    - partial behaviors are matched by letting the source run further
      (without acquires, for every oracle) until its writes cover
      F_tgt ∪ R ({!can_fulfill_universally}, rule beh-partial).

    As in {!Refine}, a set-based reference ({!Slow}) and a fast path over
    {!Core} ids decide the same game; the fast path hands its pairs to
    {!Pair_graph.solve} with the commitment set as a mask, memoizes the
    suffix games per configuration id, and recomputes the source's
    answers at every pair. *)

open Lang

(* ------------------------------------------------------------------ *)
(* ∀-oracle suffix games                                                *)
(* ------------------------------------------------------------------ *)

module Cfg_set = Set.Make (struct
  type t = Config.t
  let compare = Config.compare
end)

(* Universal branching over environment responses at a step:
   [`Forbidden] if the step is an acquire (forbidden in suffixes), the
   successors otherwise ([`Branches []] when the program terminates).
   The set-based reference of {!Core.suffix}. *)
let suffix_successors (d : Domain.t) (cfg : Config.t) :
    [ `Forbidden | `Branches of [ `Cfg of Config.t | `Bot ] list ] =
  match Prog.step cfg.Config.prog with
  | Prog.Terminated _ -> `Branches []
  | Prog.Undefined -> `Branches [ `Bot ]
  | Prog.Silent p -> `Branches [ `Cfg { cfg with prog = p } ]
  | Prog.Do_out (_, p) -> `Branches [ `Cfg { cfg with prog = p } ]
  | Prog.Choice f ->
    `Branches (List.map (fun v -> `Cfg { cfg with prog = f v }) d.Domain.values)
  | Prog.Do_read (Mode.Rna, x, f) ->
    let v = if Loc.Set.mem x cfg.perm then Config.read_mem cfg x else Value.Undef in
    `Branches [ `Cfg { cfg with prog = f v } ]
  | Prog.Do_read (Mode.Rrlx, _, f) ->
    `Branches
      (List.map (fun v -> `Cfg { cfg with prog = f v }) (Domain.values_with_undef d))
  | Prog.Do_read (Mode.Racq, _, _) | Prog.Do_update _
  | Prog.Do_fence ((Mode.Facq | Mode.Facqrel | Mode.Fsc), _) -> `Forbidden
  | Prog.Do_write (Mode.Wna, x, v, p) ->
    if Loc.Set.mem x cfg.perm then
      `Branches
        [ `Cfg
            {
              cfg with
              prog = p;
              written = Loc.Set.add x cfg.written;
              mem = Loc.Map.add x v cfg.mem;
            } ]
    else `Branches [ `Bot ]
  | Prog.Do_write (Mode.Wrlx, _, _, p) -> `Branches [ `Cfg { cfg with prog = p } ]
  | Prog.Do_write (Mode.Wrel, _, _, p) ->
    `Branches
      (List.map
         (fun post -> `Cfg (Config.apply_release { cfg with prog = p } ~post))
         (Domain.subsets_of d cfg.perm))
  | Prog.Do_fence (Mode.Frel, p) ->
    `Branches
      (List.map
         (fun post -> `Cfg (Config.apply_release { cfg with prog = p } ~post))
         (Domain.subsets_of d cfg.perm))

(** Can the source reach ⊥ without any acquire event, under {e every}
    oracle? (the "∀Ω. ∃ trace with Racq ∉ tr ending in ⊥" disjunct of
    Fig 6.)  Environment-controlled branches ([choose] values, relaxed-read
    values, release permission drops) are conjunctive; cycles lose. *)
module Cfg_map = Map.Make (struct
  type t = Config.t
  let compare = Config.compare
end)

(* All branching in the suffix games is adversarial (the program itself is
   deterministic), so a cycle means the environment can loop forever:
   returning false on back-edges computes the exact game value, and results
   are context-independent and cacheable. *)
let can_fail_universally_memo ?(budget = Engine.Budget.unlimited)
    (d : Domain.t) (memo : bool Cfg_map.t ref) (cfg : Config.t) : bool =
  let rec go visiting cfg =
    Engine.Budget.check budget;
    match Cfg_map.find_opt cfg !memo with
    | Some b -> b
    | None ->
      if Cfg_set.mem cfg visiting then false (* a cycle never reaches ⊥ *)
      else begin
        let visiting = Cfg_set.add cfg visiting in
        let result =
          match suffix_successors d cfg with
          | `Forbidden -> false
          | `Branches [] -> false (* terminated without ⊥ *)
          | `Branches bs ->
            List.for_all
              (function `Bot -> true | `Cfg c -> go visiting c)
              bs
        in
        memo := Cfg_map.add cfg result !memo;
        result
      end
  in
  go Cfg_set.empty cfg

(** Can the source reach ⊥ without any acquire event, under {e every}
    oracle? (the "∀Ω. ∃ trace with Racq ∉ tr ending in ⊥" disjunct of
    Fig 6.) *)
let can_fail_universally ?budget (d : Domain.t) (cfg : Config.t) : bool =
  can_fail_universally_memo ?budget d (ref Cfg_map.empty) cfg

(** Can the source, without any acquire event and under every oracle,
    extend its execution so that its writes cover [need]?  (rule
    beh-partial: F_tgt ∪ R ⊆ F_src ∪ ⋃ released F's; writes are "banked"
    continuously, which is equivalent.)  Reaching ⊥ also wins
    (beh-failure). *)
let can_fulfill_universally ?(budget = Engine.Budget.unlimited) (d : Domain.t)
    ~(need : Loc.Set.t) (cfg : Config.t) : bool =
  let module Key = struct
    type t = Loc.Set.t * Config.t
    let compare (n1, c1) (n2, c2) =
      let c = Loc.Set.compare n1 n2 in
      if c <> 0 then c else Config.compare c1 c2
  end in
  let module KSet = Set.Make (Key) in
  let rec go visiting need cfg =
    Engine.Budget.check budget;
    let need = Loc.Set.diff need cfg.Config.written in
    if Loc.Set.is_empty need then true
    else if KSet.mem (need, cfg) visiting then false
    else
      let visiting = KSet.add (need, cfg) visiting in
      match suffix_successors d cfg with
      | `Forbidden -> false
      | `Branches [] -> false
      | `Branches bs ->
        List.for_all
          (function `Bot -> true | `Cfg c -> go visiting need c)
          bs
  in
  go KSet.empty need cfg

(* ------------------------------------------------------------------ *)
(* The simulation game with commitment sets                            *)
(* ------------------------------------------------------------------ *)

type pair = { commit : Loc.Set.t; tgt : Config.t; src : Config.t }

module Pair_map = Map.Make (struct
  type t = pair
  let compare a b =
    let c = Loc.Set.compare a.commit b.commit in
    if c <> 0 then c
    else
      let c = Config.compare a.tgt b.tgt in
      if c <> 0 then c else Config.compare a.src b.src
end)

type answer = Const of bool | Dep of pair

type src_point =
  | Plain of Config.t
  | Pend_rel of Event.rel_kind * Config.t
  | Pend_acq of Event.acq_kind * Config.t

let mem_le (d : Domain.t) m1 m2 =
  List.for_all
    (fun x ->
      Value.le
        (Loc.Map.find_default ~default:Value.zero x m1)
        (Loc.Map.find_default ~default:Value.zero x m2))
    d.Domain.na_locs

(* The operations of the reference game ({!Slow}): lines, move lists
   and the ∀-oracle suffix games, recomputed from scratch at every use
   (modulo the per-check [can_fail] memo it always had).  The fast path
   below plays the same game on {!Core} ids and must return identical
   values — the games may not drift. *)
type ops = {
  line : Config.t -> Config.line;
  moves : Config.t -> Config.move list;
  can_fail : Config.t -> bool;
  can_fulfill : need:Loc.Set.t -> Config.t -> bool;
}

let slow_ops ~budget (d : Domain.t) (fm : bool Cfg_map.t ref) : ops =
  {
    line = Config.line;
    moves = Config.moves d;
    can_fail = (fun cfg -> can_fail_universally_memo ~budget d fm cfg);
    can_fulfill =
      (fun ~need cfg -> can_fulfill_universally ~budget d ~need cfg);
  }

(* R' of beh-rel-write: (R ∖ F_src) ∪ (F_tgt ∖ F_src) ∪ {y | V_tgt(y) ⋢ V_src(y)}.
   The released memories range over the shared pre-release permission set. *)
let next_commit ~commit ~(ftgt : Loc.Set.t) ~(fsrc : Loc.Set.t)
    ~(vtgt : Value.t Loc.Map.t) ~(vsrc : Value.t Loc.Map.t) : Loc.Set.t =
  let base = Loc.Set.union (Loc.Set.diff commit fsrc) (Loc.Set.diff ftgt fsrc) in
  Loc.Map.fold
    (fun y vt acc ->
      let vs = Loc.Map.find_default ~default:Value.zero y vsrc in
      if Value.le vt vs then acc else Loc.Set.add y acc)
    vtgt base

let src_released (scfg : Config.t) : Value.t Loc.Map.t =
  Loc.Set.fold
    (fun y acc -> Loc.Map.add y (Config.read_mem scfg y) acc)
    scfg.Config.perm Loc.Map.empty

(* Answer one target label (Fig 2 rules) from a source configuration that
   sits at a labeled step.  Threads the commitment set. *)
let respond1 ~commit (scfg : Config.t) (ev : Event.t) :
    [ `Ok of Loc.Set.t * src_point | `Bot | `No ] =
  let open Event in
  match ev, Prog.step scfg.Config.prog with
  | Choose v, Prog.Choice f -> `Ok (commit, Plain { scfg with prog = f v })
  | Rlx_read (x, v), Prog.Do_read (Mode.Rrlx, y, f) when Loc.equal x y ->
    `Ok (commit, Plain { scfg with prog = f v })
  | Rlx_write (x, vt), Prog.Do_write (Mode.Wrlx, y, vs, p) when Loc.equal x y ->
    if Value.le vt vs then `Ok (commit, Plain { scfg with prog = p }) else `No
  | Out vt, Prog.Do_out (vs, p) ->
    if Value.le vt vs then `Ok (commit, Plain { scfg with prog = p }) else `No
  | Acq a, shape ->
    (* beh-acq-read: F_tgt ∪ R ⊆ F_src, R' = ∅ *)
    if
      not
        (Loc.Set.equal a.apre scfg.Config.perm
         && Loc.Set.subset
              (Loc.Set.union a.awritten commit)
              scfg.Config.written)
    then `No
    else
      let continue prog' =
        `Ok
          ( Loc.Set.empty,
            Plain
              (Config.apply_acquire { scfg with prog = prog' } ~post:a.apost
                 ~vnew:a.agained) )
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
            `Ok (Loc.Set.empty, Pend_rel (Rel_update (x, v_new), cfg')))
       | _, _ -> `No)
  | Rel r, shape ->
    (* beh-rel-write: only P/P' and the value are constrained; written-set
       and memory disagreements become commitments. *)
    if not (Loc.Set.equal r.rpre scfg.Config.perm) then `No
    else
      let commit' =
        next_commit ~commit ~ftgt:r.rwritten ~fsrc:scfg.Config.written
          ~vtgt:r.rreleased ~vsrc:(src_released scfg)
      in
      let continue prog' =
        `Ok
          ( commit',
            Plain (Config.apply_release { scfg with prog = prog' } ~post:r.rpost)
          )
      in
      (match r.rkind, shape with
       | Rel_write (x, vt), Prog.Do_write (Mode.Wrel, y, vs, p)
         when Loc.equal x y ->
         if Value.le vt vs then continue p else `No
       | Rel_fence, Prog.Do_fence (Mode.Frel, p) -> continue p
       | Rel_fence, Prog.Do_fence (Mode.Facqrel, p) ->
         `Ok
           ( commit',
             Pend_acq
               (Event.Acq_fence,
                Config.apply_release { scfg with prog = p } ~post:r.rpost) )
       | Rel_fence_sc, Prog.Do_fence (Mode.Fsc, p) ->
         `Ok
           ( commit',
             Pend_acq
               (Event.Acq_fence_sc,
                Config.apply_release { scfg with prog = p } ~post:r.rpost) )
       | _, _ -> `No)
  | (Choose _ | Rlx_read _ | Rlx_write _ | Out _), _ -> `No

let respond_pending ~commit (point : src_point) (ev : Event.t) :
    [ `Ok of Loc.Set.t * src_point | `Bot | `No ] =
  let open Event in
  match point, ev with
  | Pend_rel (skind, scfg), Rel r ->
    if not (Loc.Set.equal r.rpre scfg.Config.perm) then `No
    else
      let kind_ok =
        match r.rkind, skind with
        | Rel_update (x, vt), Rel_update (y, vs) -> Loc.equal x y && Value.le vt vs
        | _, _ -> false
      in
      if not kind_ok then `No
      else
        let commit' =
          next_commit ~commit ~ftgt:r.rwritten ~fsrc:scfg.Config.written
            ~vtgt:r.rreleased ~vsrc:(src_released scfg)
        in
        `Ok (commit', Plain (Config.apply_release scfg ~post:r.rpost))
  | Pend_acq (k, scfg), Acq a ->
    if
      not
        (Loc.Set.equal a.apre scfg.Config.perm
         && Loc.Set.subset
              (Loc.Set.union a.awritten commit)
              scfg.Config.written
         && Event.compare_kinds_a a.akind k = 0)
    then `No
    else
      `Ok
        ( Loc.Set.empty,
          Plain (Config.apply_acquire scfg ~post:a.apost ~vnew:a.agained) )
  | (Plain _ | Pend_rel _ | Pend_acq _), _ -> `No

let rec consume (ops : ops) ~commit (point : src_point) (evs : Event.t list)
    (next_t : Config.next) : answer =
  match evs with
  | [] ->
    (match point with
     | Pend_rel _ | Pend_acq _ -> Const false
     | Plain scfg ->
       (match next_t with
        | Config.Bot -> Const (ops.can_fail scfg)
        | Config.Cont tcfg' -> Dep { commit; tgt = tcfg'; src = scfg }))
  | ev :: rest ->
    (match point with
     | Pend_rel _ | Pend_acq _ ->
       (match respond_pending ~commit point ev with
        | `Ok (commit', point') -> consume ops ~commit:commit' point' rest next_t
        | `Bot -> Const true
        | `No -> Const false)
     | Plain scfg ->
       let ln = ops.line scfg in
       (match ln.Config.line_end with
        | Config.L_bot -> Const true
        | Config.L_label scfg' ->
          (match respond1 ~commit scfg' ev with
           | `Ok (commit', point') -> consume ops ~commit:commit' point' rest next_t
           | `Bot -> Const true
           | `No ->
             (* the source may still escape via late UB for every oracle *)
             Const (ops.can_fail scfg))
        | Config.L_term _ | Config.L_diverge ->
          Const (ops.can_fail scfg)))

type node = { local_ok : bool; deps : answer list }

let analyze (ops : ops) (d : Domain.t) (p : pair) : node =
  (* Fig 6: [∀Ω ∃ ⊥-suffix] disjunct first — it matches everything. *)
  if ops.can_fail p.src then { local_ok = true; deps = [] }
  else
    let ln_t = ops.line p.tgt in
    let need = Loc.Set.union ln_t.Config.written_max p.commit in
    if not (ops.can_fulfill ~need p.src) then { local_ok = false; deps = [] }
    else
      match ln_t.Config.line_end with
      | Config.L_bot ->
        (* only matched by the ⊥-escape, which failed *)
        { local_ok = false; deps = [] }
      | Config.L_diverge -> { local_ok = true; deps = [] }
      | Config.L_term (v, tcfg') ->
        let ln_s = ops.line p.src in
        (match ln_s.Config.line_end with
         | Config.L_term (v', scfg') ->
           let ok =
             Value.le v v'
             && Loc.Set.subset
                  (Loc.Set.union tcfg'.Config.written p.commit)
                  scfg'.Config.written
             && mem_le d tcfg'.Config.mem scfg'.Config.mem
           in
           { local_ok = ok; deps = [] }
         | Config.L_bot | Config.L_diverge | Config.L_label _ ->
           { local_ok = false; deps = [] })
      | Config.L_label tcfg' ->
        let ln_s = ops.line p.src in
        (match ln_s.Config.line_end with
         | Config.L_label scfg' ->
           let answers =
             List.map
               (fun (evs, next_t) ->
                 consume ops ~commit:p.commit (Plain scfg') evs next_t)
               (ops.moves tcfg')
           in
           { local_ok = true; deps = answers }
         | Config.L_bot (* would have been caught by the escape *)
         | Config.L_term _ | Config.L_diverge ->
           { local_ok = false; deps = [] })

(** The set-based reference checker: recomputes every line, move list,
    and suffix game from scratch (modulo the per-check [can_fail] memo it
    always had) and runs the greatest fixpoint by repeated full passes.
    The differential-testing oracle for the fast path below. *)
module Slow = struct
  let check_pairs_count ?(budget = Engine.Budget.unlimited) (d : Domain.t)
      (roots : pair list) : bool * int =
    let fm = ref Cfg_map.empty in
    let ops = slow_ops ~budget d fm in
    let nodes : node Pair_map.t ref = ref Pair_map.empty in
    let rec explore p =
      if not (Pair_map.mem p !nodes) then begin
        Engine.Budget.spend_state budget;
        nodes := Pair_map.add p { local_ok = true; deps = [] } !nodes;
        let node = analyze ops d p in
        nodes := Pair_map.add p node !nodes;
        List.iter (function Dep q -> explore q | Const _ -> ()) node.deps
      end
    in
    List.iter explore roots;
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
                   (function Const b -> b | Dep q -> Pair_map.find q !alive)
                   node.deps
            in
            if not ok then begin
              alive := Pair_map.add p false !alive;
              changed := true
            end
          end)
        !nodes
    done;
    ( List.for_all (fun p -> Pair_map.find p !alive) roots,
      Pair_map.cardinal !nodes )

  let check_pairs ?budget (d : Domain.t) (roots : pair list) : bool =
    fst (check_pairs_count ?budget d roots)
end

(* ------------------------------------------------------------------ *)
(* Fast path: interned configurations, memoized suffix games           *)
(* ------------------------------------------------------------------ *)

(* The ∀-oracle suffix games over interned ids, on {!Core.suffix}'s
   memoized branching. *)
let suffix_id_ops (core : Core.t) (budget : Engine.Budget.t) =
  (* can_fail: result memo (context-independent, as in the reference:
     all branching is adversarial, so a back edge is a genuine cycle and
     false is the exact game value); [visiting] is the DFS path. *)
  let fail_memo : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let fail_visiting : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec can_fail_id id =
    Engine.Budget.check budget;
    match Hashtbl.find_opt fail_memo id with
    | Some b -> b
    | None ->
      if Hashtbl.mem fail_visiting id then false
      else begin
        Hashtbl.add fail_visiting id ();
        let result =
          match Core.suffix core id with
          | Core.Sx_forbidden | Core.Sx_term -> false
          | Core.Sx_branches ids -> Array.for_all can_fail_id ids
        in
        Hashtbl.remove fail_visiting id;
        Hashtbl.replace fail_memo id result;
        result
      end
  in
  (* can_fulfill: interior nodes are path-dependent (a back edge to the
     DFS path loses only along that path), so only completed {e
     top-level} queries are memoized — those are the exact game values
     the reference computes from scratch at every pair. *)
  let fulfill_memo : (int * int, bool) Hashtbl.t = Hashtbl.create 64 in
  let can_fulfill_id need id =
    match Hashtbl.find_opt fulfill_memo (need, id) with
    | Some b -> b
    | None ->
      let visiting : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
      let rec go need id =
        Engine.Budget.check budget;
        let need = need land lnot (Core.written_mask core id) in
        if need = 0 then true
        else if Hashtbl.mem visiting (need, id) then false
        else begin
          Hashtbl.add visiting (need, id) ();
          let result =
            match Core.suffix core id with
            | Core.Sx_forbidden | Core.Sx_term -> false
            | Core.Sx_branches ids -> Array.for_all (fun c -> go need c) ids
          in
          Hashtbl.remove visiting (need, id);
          result
        end
      in
      let b = go need id in
      Hashtbl.add fulfill_memo (need, id) b;
      b
  in
  (can_fail_id, can_fulfill_id)

(* Same structure as [Refine.solve_fast], with the commitment mask as
   the first component of every {!Pair_graph} pair. *)
let solve_fast ?(budget = Engine.Budget.unlimited) (core : Core.t)
    (roots : pair list) : bool * int =
  let can_fail_id, can_fulfill_id = suffix_id_ops core budget in
  (* the Fig 2 conditions [respond1]/[respond_pending] put on a label's
     annotations beyond those {!Core.answer} checks, and the commitment
     mask after it: an acquire needs F_tgt ∪ R ⊆ F_src and empties R, a
     release turns written-set and memory disagreements into R' *)
  let respond cmask pt l : int * Core.point =
    let c = Core.point_id pt in
    let fsrc = Core.written_mask core c in
    if Core.is_acquire core l then
      if (Core.label_written core l lor cmask) land lnot fsrc <> 0 then
        (cmask, Core.No)
      else (0, Core.answer core pt l)
    else
      match Core.answer core pt l with
      | (Core.No | Core.Bot) as r -> (cmask, r)
      | r when Core.is_release core l ->
        ( (cmask lor Core.label_written core l) land lnot fsrc
          lor Core.release_excess core l c,
          r )
      | r -> (cmask, r)
  in
  (* Mirrors [consume]: the source at point [pt], under commitment mask
     [cmask], answers labels [i..] of [labs]; [next_t] is the target's
     successor id (-1 for ⊥).  The answer goes to [sink]. *)
  let rec consume sink cmask (pt : Core.point) (labs : int array) i
      (next_t : int) =
    match pt with
    | Core.No -> Pair_graph.const sink false
    | Core.Bot -> Pair_graph.const sink true
    | Core.Plain sid ->
      if i = Array.length labs then
        if next_t >= 0 then Pair_graph.dep sink cmask next_t sid
        else Pair_graph.const sink (can_fail_id sid)
      else (
        match Core.line_end core sid with
        | Core.L_bot -> Pair_graph.const sink true
        | Core.L_label ->
          (match respond cmask (Core.Plain (Core.line_next core sid)) labs.(i)
           with
           | _, Core.No ->
             (* the source may still escape via late UB for every oracle *)
             Pair_graph.const sink (can_fail_id sid)
           | cmask', pt' -> consume sink cmask' pt' labs (i + 1) next_t)
        | Core.L_term _ | Core.L_diverge ->
          Pair_graph.const sink (can_fail_id sid))
    | Core.Pend_rel _ | Core.Pend_acq _ ->
      if i = Array.length labs then Pair_graph.const sink false
      else
        let cmask', pt' = respond cmask pt labs.(i) in
        consume sink cmask' pt' labs (i + 1) next_t
  in
  let analyze sink (cmask : int) (tid : int) (sid : int) : bool =
    (* Fig 6: [forall-Omega exists bottom-suffix] disjunct first — it
       matches everything. *)
    can_fail_id sid
    ||
    let need = Core.line_wmax_mask core tid lor cmask in
    can_fulfill_id need sid
    &&
    match Core.line_end core tid, Core.line_end core sid with
    | Core.L_bot, _ ->
      (* only matched by the bottom-escape, which failed *)
      false
    | Core.L_diverge, _ -> true
    | Core.L_term v, Core.L_term v' ->
      let t' = Core.line_next core tid and s' = Core.line_next core sid in
      Value.le v v'
      && (Core.written_mask core t' lor cmask)
         land lnot (Core.written_mask core s')
         = 0
      && Core.mem_le core (Core.mem_id core t') (Core.mem_id core s')
    | Core.L_label, Core.L_label ->
      let t' = Core.line_next core tid in
      let s' = Core.Plain (Core.line_next core sid) in
      let labs = Core.moves_labels core t' in
      let nexts = Core.moves_next core t' in
      for k = 0 to Array.length labs - 1 do
        consume sink cmask s' (Core.list_labels core labs.(k)) 0 nexts.(k)
      done;
      true
    | (Core.L_term _ | Core.L_label), _ ->
      (* a source line to bottom would have been caught by the escape *)
      false
  in
  let mask_of = Packed.mask_of_set (Core.packed core) in
  Pair_graph.solve ~budget ~analyze
    (List.map
       (fun p ->
         let cmask = mask_of p.commit in
         let tid = Core.intern core p.tgt in
         (cmask, tid, Core.intern core p.src))
       roots)

let check_pairs_count ?budget (d : Domain.t) (roots : pair list) :
    bool * int =
  match Core.create d with
  | None -> Slow.check_pairs_count ?budget d roots
  | Some core ->
    (* Packability of the roots extends to every reachable pair: see
       [Refine.check_pairs_count]; commitment sets only collect locations
       from written sets and released memories, which stay inside the
       domain. *)
    (match
       List.iter
         (fun p ->
           ignore (Packed.mask_of_set (Core.packed core) p.commit);
           ignore (Core.intern core p.tgt);
           ignore (Core.intern core p.src))
         roots
     with
     | () -> solve_fast ?budget core roots
     | exception Packed.Unpackable -> Slow.check_pairs_count ?budget d roots)

let check_pairs ?budget (d : Domain.t) (roots : pair list) : bool =
  fst (check_pairs_count ?budget d roots)

(** Budgeted three-valued form of {!check_pairs}. *)
let check_pairs_verdict ?budget (d : Domain.t) (roots : pair list) :
    unit Engine.Verdict.t =
  Engine.Verdict.run (fun () ->
      Engine.Verdict.of_bool (check_pairs ?budget d roots))

(** [check d ~src ~tgt] decides [σ_tgt ⊑w σ_src] (Def 3.3) over the finite
    domain: advanced behavioral refinement for every oracle and every
    initial permission set and memory. *)
let check_count ?(quantify_written = false) ?(symmetry = false) ?budget
    (d : Domain.t) ~(src : Stmt.t) ~(tgt : Stmt.t) : bool * int =
  Config.check_no_mixing [ src; tgt ];
  let perms = Domain.subsets d.Domain.na_locs in
  let writtens =
    if quantify_written then Domain.subsets d.Domain.na_locs
    else [ Loc.Set.empty ]
  in
  let mems = Domain.memories d in
  let roots =
    List.concat_map
      (fun perm ->
        List.concat_map
          (fun written ->
            List.map
              (fun mem ->
                {
                  commit = Loc.Set.empty;
                  tgt = Config.make ~perm ~written ~mem (Prog.init tgt);
                  src = Config.make ~perm ~written ~mem (Prog.init src);
                })
              mems)
          writtens)
      perms
  in
  let roots =
    if not symmetry then roots
    else
      match Core.Symmetry.automorphisms d [ src; tgt ] with
      | [] -> roots
      | autos ->
        List.filter
          (fun p ->
            Core.Symmetry.minimal_env autos ~perm:p.tgt.Config.perm
              ~written:p.tgt.Config.written ~mem:p.tgt.Config.mem)
          roots
  in
  check_pairs_count ?budget d roots

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
