(** The source side of the advanced set-based game (Def 3.3): answering
    the labels of one target move (the rules of Fig 2), threading the
    commitment set R.  [escape scfg] decides a source that cannot
    answer: it fails for every oracle without acquiring (Fig 6).  The
    simple game keeps its own literal Def 2.4 responder ({!Refine}). *)

open Lang
module Config = Seq_model.Config
module Event = Seq_model.Event

(* The source's position while answering the labels of one target move.
   RMWs and acquire-release fences emit two labels atomically; the
   pending constructors hold the forced second half. *)
type src_point =
  | Plain of Config.t
  | Pend_rel of Event.rel_kind * Config.t
  | Pend_acq of Event.acq_kind * Config.t

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
              (Moves.apply_acquire { scfg with prog = prog' } ~post:a.apost
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
              Moves.apply_acquire { scfg with prog = p } ~post:a.apost
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
          ~vtgt:r.rreleased ~vsrc:(Moves.src_released scfg)
      in
      let continue prog' =
        `Ok
          ( commit',
            Plain (Moves.apply_release { scfg with prog = prog' } ~post:r.rpost)
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
                Moves.apply_release { scfg with prog = p } ~post:r.rpost) )
       | Rel_fence_sc, Prog.Do_fence (Mode.Fsc, p) ->
         `Ok
           ( commit',
             Pend_acq
               (Event.Acq_fence_sc,
                Moves.apply_release { scfg with prog = p } ~post:r.rpost) )
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
            ~vtgt:r.rreleased ~vsrc:(Moves.src_released scfg)
        in
        `Ok (commit', Plain (Moves.apply_release scfg ~post:r.rpost))
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
          Plain (Moves.apply_acquire scfg ~post:a.apost ~vnew:a.agained) )
  | (Plain _ | Pend_rel _ | Pend_acq _), _ -> `No

let rec consume ~escape ~commit (point : src_point)
    (evs : Event.t list) (next_t : Moves.next) : Solver.answer =
  match evs with
  | [] ->
    (match point with
     | Pend_rel _ | Pend_acq _ -> Solver.Const false
     | Plain scfg ->
       (match next_t with
        | Moves.Bot -> Solver.Const (escape scfg)
        | Moves.Cont tcfg' -> Solver.Dep { commit; tgt = tcfg'; src = scfg }))
  | ev :: rest ->
    (match point with
     | Pend_rel _ | Pend_acq _ ->
       (match respond_pending ~commit point ev with
        | `Ok (commit', point') ->
          consume ~escape ~commit:commit' point' rest next_t
        | `Bot -> Solver.Const true
        | `No -> Solver.Const false)
     | Plain scfg ->
       let ln = Moves.line scfg in
       (match ln.Moves.line_end with
        | Moves.L_bot -> Solver.Const true
        | Moves.L_label scfg' ->
          (match respond1 ~commit scfg' ev with
           | `Ok (commit', point') ->
             consume ~escape ~commit:commit' point' rest next_t
           | `Bot -> Solver.Const true
           | `No -> Solver.Const (escape scfg))
        | Moves.L_term _ | Moves.L_diverge ->
          Solver.Const (escape scfg)))

