(** The simple game (Def 2.4) on set-based configurations: every line
    and move list is recomputed from {!Moves} at every use, and
    {!Solver} runs the fixpoint.  The reference for
    {!Seq_model.Refine}, which plays the same game on packed ids.  Its
    source side transcribes Def 2.4's label order directly; the advanced
    game's commitment-threading rules ({!Respond}) are not shared. *)

open Lang
module Config = Seq_model.Config
module Event = Seq_model.Event

(* The release label order: equal P and P', F_tgt ⊆ F_src, and
   V_tgt ⊑ V_src pointwise on the recorded (pre-release) permission set,
   which both sides share. *)
let release_le (r : Event.rel) (scfg : Config.t) =
  Loc.Set.equal r.Event.rpre scfg.Config.perm
  && Loc.Set.subset r.Event.rwritten scfg.Config.written
  &&
  let vsrc = Moves.src_released scfg in
  Loc.Map.for_all
    (fun y vt ->
      match Loc.Map.find_opt y vsrc with
      | Some vs -> Value.le vt vs
      | None -> false)
    r.Event.rreleased

(* The acquire label order: equal P, P' and V, and F_tgt ⊆ F_src. *)
let acquire_le (a : Event.acq) (scfg : Config.t) =
  Loc.Set.equal a.Event.apre scfg.Config.perm
  && Loc.Set.subset a.Event.awritten scfg.Config.written

(* Answer one target label from a source configuration that sits at a
   labeled step: the successor point, [`Bot] if the source emits the
   label and then moves to ⊥ (which matches every continuation), or
   [`No] on mismatch. *)
let respond1 (scfg : Config.t) (ev : Event.t) :
    [ `Ok of Respond.src_point | `Bot | `No ] =
  let open Event in
  let step_to prog = `Ok (Respond.Plain { scfg with prog }) in
  match ev, Prog.step scfg.Config.prog with
  | Choose v, Prog.Choice f -> step_to (f v)
  | Rlx_read (x, v), Prog.Do_read (Mode.Rrlx, y, f) when Loc.equal x y ->
    step_to (f v)
  | Rlx_write (x, vt), Prog.Do_write (Mode.Wrlx, y, vs, p) when Loc.equal x y ->
    if Value.le vt vs then step_to p else `No
  | Out vt, Prog.Do_out (vs, p) -> if Value.le vt vs then step_to p else `No
  | Acq a, shape when acquire_le a scfg ->
    let acquire prog =
      Moves.apply_acquire { scfg with prog } ~post:a.apost ~vnew:a.agained
    in
    (match a.akind, shape with
     | Acq_read (x, v), Prog.Do_read (Mode.Racq, y, f) when Loc.equal x y ->
       `Ok (Respond.Plain (acquire (f v)))
     | Acq_fence, Prog.Do_fence (Mode.Facq, p) -> `Ok (Respond.Plain (acquire p))
     | Acq_update (x, v), Prog.Do_update (y, f) when Loc.equal x y ->
       (match f v with
        | Prog.Upd_fault -> `Bot
        | Prog.Upd_read_only p -> `Ok (Respond.Plain (acquire p))
        | Prog.Upd_write (v_new, p) ->
          `Ok (Respond.Pend_rel (Rel_update (x, v_new), acquire p)))
     | _, _ -> `No)
  | Rel r, shape when release_le r scfg ->
    let release prog = Moves.apply_release { scfg with prog } ~post:r.rpost in
    (match r.rkind, shape with
     | Rel_write (x, vt), Prog.Do_write (Mode.Wrel, y, vs, p)
       when Loc.equal x y ->
       if Value.le vt vs then `Ok (Respond.Plain (release p)) else `No
     | Rel_fence, Prog.Do_fence (Mode.Frel, p) -> `Ok (Respond.Plain (release p))
     | Rel_fence, Prog.Do_fence (Mode.Facqrel, p) ->
       `Ok (Respond.Pend_acq (Event.Acq_fence, release p))
     | Rel_fence_sc, Prog.Do_fence (Mode.Fsc, p) ->
       `Ok (Respond.Pend_acq (Event.Acq_fence_sc, release p))
     | _, _ -> `No)
  | (Choose _ | Rlx_read _ | Rlx_write _ | Out _ | Acq _ | Rel _), _ -> `No

(* Answer the forced second half of an RMW or acquire-release fence. *)
let respond_pending (point : Respond.src_point) (ev : Event.t) :
    [ `Ok of Respond.src_point | `No ] =
  match point, ev with
  | Respond.Pend_rel (Event.Rel_update (y, vs), scfg),
    Event.Rel ({ rkind = Event.Rel_update (x, vt); _ } as r)
    when release_le r scfg && Loc.equal x y && Value.le vt vs ->
    `Ok (Respond.Plain (Moves.apply_release scfg ~post:r.Event.rpost))
  | Respond.Pend_acq (k, scfg), Event.Acq a
    when acquire_le a scfg && Event.compare_kinds_a a.Event.akind k = 0 ->
    `Ok
      (Respond.Plain
         (Moves.apply_acquire scfg ~post:a.Event.apost ~vnew:a.Event.agained))
  | (Respond.Plain _ | Respond.Pend_rel _ | Respond.Pend_acq _), _ -> `No

(* Have the source answer the label list of one target move, advancing
   through its unlabeled line between moves. *)
let rec consume (point : Respond.src_point) (evs : Event.t list)
    (next_t : Moves.next) : Solver.answer =
  match evs, point with
  | [], (Respond.Pend_rel _ | Respond.Pend_acq _) ->
    (* the source owes a label the target will not produce *)
    Solver.Const false
  | [], Respond.Plain scfg ->
    (match next_t with
     | Moves.Bot ->
       (* target ⊥ now: the source must reach ⊥ by unlabeled steps *)
       Solver.Const ((Moves.line scfg).Moves.line_end = Moves.L_bot)
     | Moves.Cont tcfg' ->
       Solver.Dep { Solver.commit = Loc.Set.empty; tgt = tcfg'; src = scfg })
  | ev :: rest, (Respond.Pend_rel _ | Respond.Pend_acq _) ->
    (match respond_pending point ev with
     | `Ok point' -> consume point' rest next_t
     | `No -> Solver.Const false)
  | ev :: rest, Respond.Plain scfg ->
    (match (Moves.line scfg).Moves.line_end with
     | Moves.L_bot -> Solver.Const true (* ⟨matched-prefix, ⊥⟩ matches all *)
     | Moves.L_label scfg' ->
       (match respond1 scfg' ev with
        | `Ok point' -> consume point' rest next_t
        | `Bot -> Solver.Const true
        | `No -> Solver.Const false)
     | Moves.L_term _ | Moves.L_diverge -> Solver.Const false)

(* Local obligations and dependencies of a pair (commitment set ∅). *)
let analyze (d : Domain.t) (p : Solver.pair) : Solver.node =
  let ln_t = Moves.line p.tgt in
  let ln_s = Moves.line p.src in
  if ln_s.Moves.line_end = Moves.L_bot then
    { Solver.local_ok = true; deps = [] }
  else if not (Loc.Set.subset ln_t.Moves.written_max ln_s.Moves.written_max)
  then { Solver.local_ok = false; deps = [] }
  else
    match ln_t.Moves.line_end with
    | Moves.L_bot -> { Solver.local_ok = false; deps = [] }
    | Moves.L_diverge -> { Solver.local_ok = true; deps = [] }
    | Moves.L_term (v, tcfg') ->
      (match ln_s.Moves.line_end with
       | Moves.L_term (v', scfg') ->
         let ok =
           Value.le v v'
           && Loc.Set.subset tcfg'.Config.written scfg'.Config.written
           && Moves.mem_le d tcfg'.Config.mem scfg'.Config.mem
         in
         { Solver.local_ok = ok; deps = [] }
       | Moves.L_bot | Moves.L_diverge | Moves.L_label _ ->
         { Solver.local_ok = false; deps = [] })
    | Moves.L_label tcfg' ->
      (match ln_s.Moves.line_end with
       | Moves.L_label scfg' ->
         let answers =
           List.map
             (fun (evs, next_t) -> consume (Respond.Plain scfg') evs next_t)
             (Moves.moves d tcfg')
         in
         { Solver.local_ok = true; deps = answers }
       | Moves.L_bot | Moves.L_term _ | Moves.L_diverge ->
         { Solver.local_ok = false; deps = [] })

(** Verdict and explored pair count from a set of initial pairs. *)
let check_pairs_count ?(budget = Engine.Budget.unlimited) (d : Domain.t)
    (roots : Seq_model.Refine.pair list) : bool * int =
  Solver.solve ~budget ~analyze:(analyze d)
    (List.map
       (fun (p : Seq_model.Refine.pair) ->
         { Solver.commit = Loc.Set.empty; tgt = p.tgt; src = p.src })
       roots)
