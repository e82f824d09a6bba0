(** PS_na thread states and thread-configuration steps (Fig 5).

    A thread is ⟨σ, V, P⟩: program state, view, and promise set; we
    additionally record emitted outputs (system calls) and the number of
    promise steps taken (to bound exploration).

    Exploration choices that the paper leaves unbounded are made canonical
    and bounded here; see DESIGN.md:
    - new messages take gap-midpoint / above-max timestamps (complete up to
      the order-isomorphism used for state deduplication);
    - non-atomic write batches (memory: na-write) insert at most
      [batch_bound] extra messages;
    - promised messages carry view ⊥ or [x ↦ t] (what na/rlx fulfillment
      can match) and at most [promise_budget] promise steps are taken;
    - atomic updates on racy (mixed-access) locations are not enumerated. *)

open Lang

type t = {
  prog : Prog.state;
  views : Tview.t;  (* cur/acq/rel views; cur is the paper's V *)
  promises : Message.t list;  (* sorted by Message.compare *)
  outs : Value.t list;  (* outputs, most recent first *)
  promised : int;  (* promise steps taken so far *)
}

let init prog = { prog; views = Tview.bot; promises = []; outs = []; promised = 0 }

let cur th = th.views.Tview.cur

let compare a b =
  let c = Prog.compare_state a.prog b.prog in
  if c <> 0 then c
  else
    let c = Tview.compare a.views b.views in
    if c <> 0 then c
    else
      let c = List.compare Message.compare a.promises b.promises in
      if c <> 0 then c
      else
        let c = List.compare Value.compare a.outs b.outs in
        if c <> 0 then c else Int.compare a.promised b.promised

(* Exact equality, [==] first at every level; implies [compare a b = 0]
   without {!Prog.compare_state}'s map enumerations *)
let equal a b =
  a == b
  || a.promised = b.promised
     && Prog.equal_state a.prog b.prog
     && Tview.equal a.views b.views
     && List.equal Message.equal a.promises b.promises
     && List.equal Value.equal a.outs b.outs

type params = {
  values : Value.t list;  (** defined values for choices/promises *)
  batch_bound : int;  (** max extra messages per non-atomic write *)
  batch_concrete : bool;
      (** also enumerate fresh {e concrete} extra messages in non-atomic
          write batches (the paper's rule allows arbitrary values; fresh
          reserved messages and promise fulfillment — the uses the paper
          motivates — are always enumerated) *)
  promise_budget : int;  (** max promise steps per thread *)
  cert_fuel : int;  (** depth bound for certification search *)
  max_states : int;  (** machine-exploration state budget *)
  track_fence_views : bool;
      (** keep the acq/rel view components; {!Machine.explore} turns this
          off for fence-free programs, where the components are inert and
          only split states *)
}

let default_params =
  {
    values = [ Value.Int 0; Value.Int 1; Value.Int 2 ];
    batch_bound = 1;
    batch_concrete = false;
    promise_budget = 1;
    cert_fuel = 24;
    max_states = 200_000;
    track_fence_views = true;
  }

let values_with_undef p = Value.Undef :: p.values

let add_promise th m =
  { th with promises = List.sort Message.compare (m :: th.promises) }

let remove_promise th m =
  { th with promises = List.filter (fun m' -> not (Message.equal m' m)) th.promises }

let has_promise th m = List.exists (Message.equal m) th.promises

(** The race-helper judgment (Fig 5): some message of [x], not our own
    promise, sits above our view — and for atomic accesses it must be a
    valueless non-atomic message. *)
let is_racy (mem : Memory.t) (th : t) (x : Loc.t) ~(atomic : bool) : bool =
  List.exists
    (fun m ->
      (not (has_promise th m))
      && Time.lt (View.find x (cur th)) m.Message.ts
      && ((not atomic) || Message.is_reserved m))
    (Memory.messages_at mem x)

(* (fail)/(racy-write) side condition: every outstanding promise is still
   above the thread's view. *)
let may_fail th =
  List.for_all
    (fun m -> Time.lt (View.find m.Message.loc (cur th)) m.Message.ts)
    th.promises

(** One thread-configuration step. [Step (th, mem, promise_like)] — the
    flag marks promise steps, which certification excludes. *)
type outcome =
  | Step of t * Memory.t * bool
  | Failure  (** the thread reaches ⟨⊥, V, ∅⟩ *)

(* All ways to put a single new/fulfilled message ⟨x@t, v, view_of t⟩ with
   t > floor; [mk_view] builds the message view from the chosen t. *)
let write_single (mem : Memory.t) (th : t) x ~floor ~mk_payload :
    (Message.t * Memory.t * t) list =
  let fresh =
    List.map
      (fun (ts, _pred) ->
        let m =
          { Message.loc = x; ts; attached = false; payload = mk_payload ts }
        in
        (m, Memory.add mem m, th))
      (Memory.insert_positions ~floor mem x)
  in
  let fulfilled =
    List.filter_map
      (fun m ->
        if
          Loc.equal m.Message.loc x
          && Time.lt floor m.Message.ts
          && Message.compare_payload m.Message.payload (mk_payload m.Message.ts)
             = 0
        then Some (m, mem, remove_promise th m)
        else None)
      th.promises
  in
  fresh @ fulfilled

(* Non-atomic write batches: up to [bound] extra ⊥-view messages (fresh
   reserved/concrete ones or fulfilled promises) strictly between the view
   and the final message. *)
let rec na_batches (p : params) (mem : Memory.t) (th : t) x ~floor ~bound :
    (Time.t * Memory.t * t) list =
  let no_extra = [ (floor, mem, th) ] in
  if bound = 0 then no_extra
  else
    let payloads =
      Message.Reserved
      ::
      (if p.batch_concrete then
         List.map
           (fun v -> Message.Concrete { value = v; view = View.bot })
           (values_with_undef p)
       else [])
    in
    let one_extra =
      List.concat_map
        (fun payload ->
          write_single mem th x ~floor ~mk_payload:(fun _ -> payload))
        payloads
      (* fulfilling reserved/⊥-view promises regardless of payload: *)
      @ List.filter_map
          (fun m ->
            if
              Loc.equal m.Message.loc x
              && Time.lt floor m.Message.ts
              && View.is_bot (Message.view m)
            then Some (m, mem, remove_promise th m)
            else None)
          th.promises
    in
    no_extra
    @ List.concat_map
        (fun (m, mem', th') ->
          na_batches p mem' th' x ~floor:m.Message.ts ~bound:(bound - 1))
        one_extra

(** All PS_na steps of a thread against the given memory. *)
let steps (p : params) (mem : Memory.t) (th : t) : outcome list =
  let normalize =
    if p.track_fence_views then fun o -> o
    else
      function
      | Step (th', mem', fl) ->
        Step ({ th' with views = Tview.collapse th'.views }, mem', fl)
      | Failure -> Failure
  in
  List.map normalize
  @@
  let ret_failure = if may_fail th then [ Failure ] else [] in
  match Prog.step th.prog with
  | Prog.Terminated _ -> []
  | Prog.Undefined -> ret_failure
  | Prog.Silent p' -> [ Step ({ th with prog = p' }, mem, false) ]
  | Prog.Do_out (v, p') ->
    [ Step ({ th with prog = p'; outs = v :: th.outs }, mem, false) ]
  | Prog.Choice f ->
    List.map (fun v -> Step ({ th with prog = f v }, mem, false)) p.values
  | Prog.Do_read (o, x, f) ->
    let atomic = Mode.read_is_atomic o in
    let normal =
      List.map
        (fun m ->
          let v = Option.get (Message.value m) in
          let views' =
            Tview.read x m.Message.ts ~mview:(Message.view m)
              ~sync:(o = Mode.Racq) ~track:atomic th.views
          in
          Step ({ th with prog = f v; views = views' }, mem, false))
        (Memory.readable mem x (View.find x (cur th)))
    in
    let racy =
      if is_racy mem th x ~atomic then
        [ Step ({ th with prog = f Value.Undef }, mem, false) ]
      else []
    in
    normal @ racy
  | Prog.Do_write (o, x, v, p') ->
    let floor = View.find x (cur th) in
    let racy =
      if is_racy mem th x ~atomic:(Mode.write_is_atomic o) then ret_failure
      else []
    in
    let normal =
      match o with
      | Mode.Wna ->
        List.concat_map
          (fun (floor', mem', th') ->
            List.map
              (fun (m, mem'', th'') ->
                let views' = Tview.write x m.Message.ts th''.views in
                Step ({ th'' with prog = p'; views = views' }, mem'', false))
              (write_single mem' th' x ~floor:floor' ~mk_payload:(fun _ ->
                   Message.Concrete { value = v; view = View.bot })))
          (na_batches p mem th x ~floor ~bound:p.batch_bound)
      | Mode.Wrlx ->
        (* after a release fence, relaxed writes carry the published view
           (C11 fence synchronisation, PS2-style) *)
        let relv = th.views.Tview.rel in
        List.map
          (fun (m, mem', th') ->
            let views' = Tview.write x m.Message.ts th'.views in
            Step ({ th' with prog = p'; views = views' }, mem', false))
          (write_single mem th x ~floor ~mk_payload:(fun ts ->
               Message.Concrete
                 { value = v; view = View.join relv (View.singleton x ts) }))
      | Mode.Wrel ->
        (* no outstanding non-⊥ promises on x *)
        let promises_ok =
          List.for_all
            (fun m ->
              (not (Loc.equal m.Message.loc x))
              || (not (Message.is_concrete m))
              || View.is_bot (Message.view m))
            th.promises
        in
        if not promises_ok then []
        else
          List.filter_map
            (fun (ts, _pred) ->
              let views' = Tview.write x ts th.views in
              let m =
                {
                  Message.loc = x;
                  ts;
                  attached = false;
                  payload =
                    Message.Concrete
                      { value = v; view = views'.Tview.cur };
                }
              in
              Some
                (Step ({ th with prog = p'; views = views' }, Memory.add mem m,
                       false)))
            (Memory.insert_positions ~floor mem x)
    in
    normal @ racy
  | Prog.Do_update (x, f) ->
    (* acquire-release RMW: read a message and write immediately after it *)
    let promises_ok =
      List.for_all
        (fun m ->
          (not (Loc.equal m.Message.loc x))
          || (not (Message.is_concrete m))
          || View.is_bot (Message.view m))
        th.promises
    in
    List.concat_map
      (fun m_r ->
        let v_read = Option.get (Message.value m_r) in
        match f v_read with
        | Prog.Upd_fault -> ret_failure
        | Prog.Upd_read_only p' ->
          let views' =
            Tview.read x m_r.Message.ts ~mview:(Message.view m_r) ~sync:true
              ~track:true th.views
          in
          [ Step ({ th with prog = p'; views = views' }, mem, false) ]
        | Prog.Upd_write (v_new, p') ->
          if not promises_ok then []
          else
            let slot =
              match Memory.successor mem m_r with
              | None -> Some (Time.above m_r.Message.ts)
              | Some m2 ->
                if m2.Message.attached then None
                else Some (Time.between m_r.Message.ts m2.Message.ts)
            in
            (match slot with
             | None -> []
             | Some ts ->
               let views' =
                 Tview.write x ts
                   (Tview.read x m_r.Message.ts ~mview:(Message.view m_r)
                      ~sync:true ~track:true th.views)
               in
               let m_w =
                 {
                   Message.loc = x;
                   ts;
                   attached = true;
                   payload =
                     Message.Concrete
                       { value = v_new; view = views'.Tview.cur };
                 }
               in
               [ Step
                   ({ th with prog = p'; views = views' }, Memory.add mem m_w,
                    false)
               ]))
      (Memory.readable mem x (View.find x (cur th)))
  | Prog.Do_fence (fm, p') ->
    (* PS2-style fences over the view triple (an extension of the paper's
       single-view fragment; its Coq development covers fences too) *)
    let promises_bot =
      List.for_all
        (fun m ->
          (not (Message.is_concrete m)) || View.is_bot (Message.view m))
        th.promises
    in
    let rel views = Tview.rel_fence views in
    let acq views = Tview.acq_fence views in
    (match fm with
     | Mode.Facq ->
       [ Step ({ th with prog = p'; views = acq th.views }, mem, false) ]
     | Mode.Frel ->
       if promises_bot then
         [ Step ({ th with prog = p'; views = rel th.views }, mem, false) ]
       else []
     | Mode.Facqrel ->
       if promises_bot then
         [ Step ({ th with prog = p'; views = rel (acq th.views) }, mem, false) ]
       else []
     | Mode.Fsc ->
       (* SC fence: synchronise with the global SC view [S] (PS2-style):
          the thread's views and S all become S ⊔ V_acq *)
       if promises_bot then
         let m = View.join (Memory.sc_view mem) th.views.Tview.acq in
         let views' = { Tview.cur = m; acq = m; rel = m } in
         [ Step
             ({ th with prog = p'; views = views' },
              Memory.with_sc_view mem m, false) ]
       else [])

(* Locations a statement may write to (any mode) — a thread can only ever
   fulfill promises on locations it writes, so promising elsewhere is
   pointless and pruned. *)
let rec writable_locs acc = function
  | Stmt.Store (_, x, _) | Stmt.Cas (_, x, _, _) | Stmt.Fadd (_, x, _) ->
    Loc.Set.add x acc
  | Stmt.Seq (a, b) | Stmt.If (_, a, b) -> writable_locs (writable_locs acc a) b
  | Stmt.While (_, a) -> writable_locs acc a
  | Stmt.Skip | Stmt.Assign _ | Stmt.Load _ | Stmt.Fence _ | Stmt.Choose _
  | Stmt.Freeze _ | Stmt.Print _ | Stmt.Abort | Stmt.Return _ -> acc

(** Promise and lower steps (kept separate so certification can exclude
    promises and exploration can bound them). *)
let promise_steps (p : params) (locs : Loc.t list) (mem : Memory.t) (th : t) :
    outcome list =
  if th.promised >= p.promise_budget then []
  else
    List.concat_map
      (fun x ->
        List.concat_map
          (fun (ts, _pred) ->
            let payloads =
              Message.Reserved
              :: List.concat_map
                   (fun v ->
                     [
                       Message.Concrete { value = v; view = View.bot };
                       Message.Concrete { value = v; view = View.singleton x ts };
                     ])
                   (values_with_undef p)
            in
            List.map
              (fun payload ->
                let m = { Message.loc = x; ts; attached = false; payload } in
                Step
                  ( add_promise { th with promised = th.promised + 1 } m,
                    Memory.add mem m,
                    true ))
              payloads)
          (Memory.insert_positions mem x))
      locs

(** The (lower) step: weaken an own promise's value to [undef] and/or its
    view to ⊥. *)
let lower_steps (mem : Memory.t) (th : t) : outcome list =
  List.concat_map
    (fun m ->
      match m.Message.payload with
      | Message.Reserved -> []
      | Message.Concrete { value; view } ->
        let variants =
          (if Value.is_undef value then []
           else [ Message.Concrete { value = Value.Undef; view } ])
          @ (if View.is_bot view then []
             else [ Message.Concrete { value; view = View.bot } ])
          @
          if Value.is_undef value || View.is_bot view then []
          else [ Message.Concrete { value = Value.Undef; view = View.bot } ]
        in
        List.map
          (fun payload ->
            let m' = { m with Message.payload } in
            (* same loc and ts, so the sorted order holds in place *)
            let promises =
              List.map (fun m0 -> if m0 == m then m' else m0) th.promises
            in
            Step ({ th with promises }, Memory.replace mem ~old_m:m ~new_m:m',
                  false))
          variants)
    th.promises

let pp ppf th =
  Fmt.pf ppf "@[<v>V=%a P=[%a] outs=[%a]@ %a@]" Tview.pp th.views
    (Fmt.list ~sep:Fmt.semi Message.pp)
    th.promises
    (Fmt.list ~sep:Fmt.comma Value.pp)
    (List.rev th.outs) Prog.pp_state th.prog
