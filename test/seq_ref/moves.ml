(** The transitions of Fig 1 on set-based configurations: the reference
    that {!Seq_model.Core}'s packed transitions are checked against.

    Two step interfaces are provided:
    - {!moves}: the full transition relation, enumerating all environment
      choices over a {!Lang.Domain.t} — used by behavior enumeration
      (Def 2.1);
    - {!line}: advance through the deterministic, unlabeled (silent and
      non-atomic) steps up to the next labeled event — used by the
      simulation games, exploiting that WHILE programs are deterministic
      (Def 6.1) so the unlabeled fragment of an execution is a straight
      line. *)

open Lang
open Seq_model

type cfg = Config.t = {
  prog : Prog.state;
  perm : Loc.Set.t;
  written : Loc.Set.t;
  mem : Value.t Loc.Map.t;
}

(** Memory lookup; absent locations read as 0 (the PS_na initialisation
    value). *)
let read_mem cfg x = Loc.Map.find_default ~default:Value.zero x cfg.mem

(** The memory order of termination behaviors: pointwise [⊑] over the
    domain's non-atomic locations, absent entries reading as 0. *)
let mem_le (d : Domain.t) m1 m2 =
  List.for_all
    (fun x ->
      Value.le
        (Loc.Map.find_default ~default:Value.zero x m1)
        (Loc.Map.find_default ~default:Value.zero x m2))
    d.Domain.na_locs

(** The memory a source releases: M|P, every location of P bound. *)
let src_released cfg =
  Loc.Set.fold (fun y acc -> Loc.Map.add y (read_mem cfg y) acc) cfg.perm
    Loc.Map.empty

(** Where a single SEQ move leads. *)
type next =
  | Cont of cfg
  | Bot  (** the program state became ⊥ (UB) *)

(** A SEQ move: the emitted trace labels (empty for silent/non-atomic
    steps, two for an RMW or acq-rel fence) and the successor. *)
type move = Event.t list * next

(* Acquire effect: gain permissions [gain ⊆ Loc_na ∖ P] with new values
   [vnew : gain → Val]; memory is overwritten on the gained locations. *)
let apply_acquire cfg ~post ~vnew =
  let mem =
    Loc.Map.fold (fun x v m -> Loc.Map.add x v m) vnew cfg.mem
  in
  { cfg with perm = post; mem }

(* Release effect: drop to [post ⊆ P]; written set resets. *)
let apply_release cfg ~post = { cfg with perm = post; written = Loc.Set.empty }

let released_mem (d : Domain.t) cfg =
  (* V = M|P over the domain's non-atomic locations *)
  List.fold_left
    (fun acc x ->
      if Loc.Set.mem x cfg.perm then Loc.Map.add x (read_mem cfg x) acc else acc)
    Loc.Map.empty d.Domain.na_locs

(* All acquire instantiations: (P', V).  The enumeration (content and
   order) is Domain.acquire_choices — the single canonical definition
   that the packed choice tables also replay. *)
let acquire_choices (d : Domain.t) cfg = Domain.acquire_choices d cfg.perm

let release_choices (d : Domain.t) cfg = Domain.subsets_of d cfg.perm

(* The release halves of an RMW / release write / release fence.  The
   released memory V = M|P depends only on [cfg], so it is computed once
   outside the per-choice closure. *)
let rel_moves d cfg ~rkind (after : cfg) : move list =
  let rreleased = released_mem d cfg in
  List.map
    (fun post ->
      let ev =
        Event.Rel
          {
            Event.rkind;
            rpre = cfg.perm;
            rpost = post;
            rwritten = cfg.written;
            rreleased;
          }
      in
      ([ ev ], Cont (apply_release after ~post)))
    (release_choices d cfg)

(** All SEQ moves of a configuration (Fig 1), enumerated over the domain.
    Terminal configurations have no moves. *)
let moves (d : Domain.t) (cfg : cfg) : move list =
  match Prog.step cfg.prog with
  | Prog.Terminated _ -> []
  | Prog.Undefined -> [ ([], Bot) ]
  | Prog.Silent p -> [ ([], Cont { cfg with prog = p }) ]
  | Prog.Do_out (v, p) -> [ ([ Event.Out v ], Cont { cfg with prog = p }) ]
  | Prog.Choice f ->
    List.map
      (fun v -> ([ Event.Choose v ], Cont { cfg with prog = f v }))
      d.Domain.values
  | Prog.Do_read (Mode.Rna, x, f) ->
    if Loc.Set.mem x cfg.perm then
      (* (na-read) *)
      [ ([], Cont { cfg with prog = f (read_mem cfg x) }) ]
    else
      (* (racy-na-read): loads undef *)
      [ ([], Cont { cfg with prog = f Value.Undef }) ]
  | Prog.Do_read (Mode.Rrlx, x, f) ->
    List.map
      (fun v -> ([ Event.Rlx_read (x, v) ], Cont { cfg with prog = f v }))
      (Domain.values_with_undef d)
  | Prog.Do_read (Mode.Racq, x, f) ->
    List.concat_map
      (fun v ->
        List.map
          (fun (post, vnew) ->
            let ev =
              Event.Acq
                {
                  Event.akind = Event.Acq_read (x, v);
                  apre = cfg.perm;
                  apost = post;
                  awritten = cfg.written;
                  agained = vnew;
                }
            in
            ([ ev ], Cont (apply_acquire { cfg with prog = f v } ~post ~vnew)))
          (acquire_choices d cfg))
      (Domain.values_with_undef d)
  | Prog.Do_write (Mode.Wna, x, v, p) ->
    if Loc.Set.mem x cfg.perm then
      (* (na-write) *)
      [ ([],
         Cont
           {
             cfg with
             prog = p;
             written = Loc.Set.add x cfg.written;
             mem = Loc.Map.add x v cfg.mem;
           }) ]
    else
      (* (racy-na-write): UB *)
      [ ([], Bot) ]
  | Prog.Do_write (Mode.Wrlx, x, v, p) ->
    [ ([ Event.Rlx_write (x, v) ], Cont { cfg with prog = p }) ]
  | Prog.Do_write (Mode.Wrel, x, v, p) ->
    rel_moves d cfg ~rkind:(Event.Rel_write (x, v)) { cfg with prog = p }
  | Prog.Do_fence (Mode.Facq, p) ->
    List.map
      (fun (post, vnew) ->
        let ev =
          Event.Acq
            {
              Event.akind = Event.Acq_fence;
              apre = cfg.perm;
              apost = post;
              awritten = cfg.written;
              agained = vnew;
            }
        in
        ([ ev ], Cont (apply_acquire { cfg with prog = p } ~post ~vnew)))
      (acquire_choices d cfg)
  | Prog.Do_fence (Mode.Frel, p) ->
    rel_moves d cfg ~rkind:Event.Rel_fence { cfg with prog = p }
  | Prog.Do_fence (((Mode.Facqrel | Mode.Fsc) as fm), p) ->
    (* release half then acquire half, atomically (two labels); an SC
       fence gets its own label kinds so it never matches a plain acq-rel
       fence in trace comparisons *)
    let rk, ak =
      match fm with
      | Mode.Fsc -> (Event.Rel_fence_sc, Event.Acq_fence_sc)
      | _ -> (Event.Rel_fence, Event.Acq_fence)
    in
    List.concat_map
      (fun (evs_r, nxt) ->
        match nxt with
        | Bot -> [ (evs_r, Bot) ]
        | Cont cfg_r ->
          List.map
            (fun (post, vnew) ->
              let ev =
                Event.Acq
                  {
                    Event.akind = ak;
                    apre = cfg_r.perm;
                    apost = post;
                    awritten = cfg_r.written;
                    agained = vnew;
                  }
              in
              (evs_r @ [ ev ], Cont (apply_acquire cfg_r ~post ~vnew)))
            (acquire_choices d cfg_r))
      (rel_moves d cfg ~rkind:rk { cfg with prog = p })
  | Prog.Do_update (x, f) ->
    (* acquire half: read any value, gain permissions; then the program
       decides; on success, release half. *)
    List.concat_map
      (fun v_read ->
        List.concat_map
          (fun (post, vnew) ->
            let acq_ev =
              Event.Acq
                {
                  Event.akind = Event.Acq_update (x, v_read);
                  apre = cfg.perm;
                  apost = post;
                  awritten = cfg.written;
                  agained = vnew;
                }
            in
            match f v_read with
            | Prog.Upd_fault -> [ ([ acq_ev ], Bot) ]
            | Prog.Upd_read_only p ->
              [ ([ acq_ev ],
                 Cont (apply_acquire { cfg with prog = p } ~post ~vnew)) ]
            | Prog.Upd_write (v_new, p) ->
              let cfg_a = apply_acquire { cfg with prog = p } ~post ~vnew in
              List.map
                (fun (evs_r, nxt) -> (acq_ev :: evs_r, nxt))
                (rel_moves d cfg_a ~rkind:(Event.Rel_update (x, v_new)) cfg_a))
          (acquire_choices d cfg))
      (Domain.values_with_undef d)

(* ------------------------------------------------------------------ *)
(* The unlabeled line: deterministic advancement to the next label.    *)
(* ------------------------------------------------------------------ *)

(** Result of advancing a configuration through its (unique) unlabeled
    steps to the next labeled event or terminal situation.  [written_max]
    is the final (and, by monotonicity of F along unlabeled steps, maximal)
    written-locations set reached on the line. *)
type line_end =
  | L_term of Value.t * cfg  (** terminated; final config after the line *)
  | L_bot  (** the line reaches ⊥ (division, abort, racy na-write) *)
  | L_diverge  (** an unlabeled cycle: a silent infinite loop *)
  | L_label of cfg  (** the next step of [cfg] emits a label *)

type line = { line_end : line_end; written_max : Loc.Set.t }

(** Advance through silent and non-atomic steps only.  The successor of
    such a step is unique (programs are deterministic and non-atomic reads
    take their value from P/M), so this is a straight line; cycles are
    detected to report divergence. *)
let line (cfg : cfg) : line =
  let module S = Set.Make (Config) in
  let rec go seen cfg =
    if S.mem cfg seen then { line_end = L_diverge; written_max = cfg.written }
    else
      let seen = S.add cfg seen in
      match Prog.step cfg.prog with
      | Prog.Terminated v -> { line_end = L_term (v, cfg); written_max = cfg.written }
      | Prog.Undefined -> { line_end = L_bot; written_max = cfg.written }
      | Prog.Silent p -> go seen { cfg with prog = p }
      | Prog.Do_read (Mode.Rna, x, f) ->
        let v = if Loc.Set.mem x cfg.perm then read_mem cfg x else Value.Undef in
        go seen { cfg with prog = f v }
      | Prog.Do_write (Mode.Wna, x, v, p) ->
        if Loc.Set.mem x cfg.perm then
          go seen
            {
              cfg with
              prog = p;
              written = Loc.Set.add x cfg.written;
              mem = Loc.Map.add x v cfg.mem;
            }
        else { line_end = L_bot; written_max = cfg.written }
      | Prog.Choice _ | Prog.Do_read ((Mode.Rrlx | Mode.Racq), _, _)
      | Prog.Do_write ((Mode.Wrlx | Mode.Wrel), _, _, _)
      | Prog.Do_update _ | Prog.Do_fence _ | Prog.Do_out _ ->
        { line_end = L_label cfg; written_max = cfg.written }
  in
  go S.empty cfg

