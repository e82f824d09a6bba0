(** Advanced behavioral refinement (§3): behavioral refinement up to a
    commitment set R (Fig 2) quantified over all oracles (Def 3.2/3.3),
    decided by the simulation of Fig 6.

    Compared to the simple game ({!Refine}):
    - the source may invoke UB {e later} than the target, provided it can
      reach ⊥ with no acquire event {e for every oracle} — environment
      choices (relaxed-read values, release permission drops, [choose]
      resolutions) are universally quantified ([can_fail]);
    - release-write labels need not agree on the written-set/memory
      annotations; the disagreement becomes a {e commitment set} R of
      locations the source must write before it terminates or acquires
      (beh-rel-write);
    - partial behaviors are matched by letting the source run further
      (without acquires, for every oracle) until its writes cover
      F_tgt ∪ R ([can_fulfill], rule beh-partial).

    As in {!Refine}, the game runs on {!Core} ids: it hands its pairs to
    {!Pair_graph.solve} with the commitment set as a mask, memoizes the
    suffix games per configuration id, and recomputes the source's
    answers at every pair.  The set-based reference of the same game
    lives in the test-only [Seq_ref] library. *)

open Lang

type pair = { commit : Loc.Set.t; tgt : Config.t; src : Config.t }

(* The ∀-oracle suffix games over interned ids, on {!Core.suffix}'s
   memoized branching. *)
let suffix_id_ops (core : Core.t) (budget : Engine.Budget.t) =
  (* can_fail: can the source reach ⊥ without any acquire event, under
     every oracle?  A result memo (context-independent: all branching is
     adversarial, so a back edge is a genuine cycle and false is the
     exact game value); [visiting] is the DFS path. *)
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
  (* can_fulfill: can the source, without acquires and under every
     oracle, extend its execution until its writes cover [need]?
     Interior nodes are path-dependent (a back edge to the DFS path
     loses only along that path), so only completed {e top-level}
     queries are memoized — the exact game values the reference
     computes from scratch at every pair. *)
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

(* Same structure as [Refine.analyzer], with the commitment mask as
   the first component of every {!Pair_graph} pair. *)
let solve ?(budget = Engine.Budget.unlimited) (core : Core.t)
    (roots : pair list) : bool * int =
  let can_fail_id, can_fulfill_id = suffix_id_ops core budget in
  (* the Fig 2 conditions on a label's annotations beyond those
     {!Core.answer} checks, and the commitment
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
  (* The source at point [pt], under commitment mask [cmask], answers
     labels [i..] of [labs]; [next_t] is the target's successor id (-1
     for ⊥).  The answer goes to [sink]. *)
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
  let holds, explored, _ =
    Pair_graph.solve ~budget ~analyze
      (List.map
         (fun p ->
           let cmask = mask_of p.commit in
           let tid = Core.intern core p.tgt in
           (cmask, tid, Core.intern core p.src))
         roots)
  in
  (holds, explored)

(** Decide advanced refinement from a set of initial pairs, also
    reporting the number of simulation nodes explored. *)
let check_pairs_count ?budget (d : Domain.t) (roots : pair list) :
    bool * int =
  solve ?budget (Core.create d) roots

(** [check d ~src ~tgt] decides [σ_tgt ⊑w σ_src] (Def 3.3) over the finite
    domain: advanced behavioral refinement for every oracle and every
    initial permission set and memory, from {!Refine.program_roots} with
    no commitments. *)
let check_count ?quantify_written ?(symmetry = false) ?budget
    (d : Domain.t) ~(src : Stmt.t) ~(tgt : Stmt.t) : bool * int =
  let core, roots =
    Refine.program_roots ?quantify_written ~symmetry d ~src ~tgt
  in
  solve ?budget core
    (List.map
       (fun (p : Refine.pair) ->
         { commit = Loc.Set.empty; tgt = p.Refine.tgt; src = p.Refine.src })
       roots)

let check ?quantify_written ?symmetry ?budget (d : Domain.t) ~(src : Stmt.t)
    ~(tgt : Stmt.t) : bool =
  fst (check_count ?quantify_written ?symmetry ?budget d ~src ~tgt)

(** Budgeted three-valued form of {!check}: [Unknown] on budget
    exhaustion, [Mixed_access], an unpackable domain, or any other
    trapped exception. *)
let check_verdict ?quantify_written ?symmetry ?budget (d : Domain.t)
    ~(src : Stmt.t) ~(tgt : Stmt.t) : unit Engine.Verdict.t =
  Engine.Verdict.run (fun () ->
      Engine.Verdict.of_bool
        (check ?quantify_written ?symmetry ?budget d ~src ~tgt))
