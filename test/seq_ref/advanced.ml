(** The advanced game (Def 3.3, Fig 6) on set-based configurations:
    every line, move list and ∀-oracle suffix game is recomputed at
    every use (modulo a per-check [can_fail] memo), and {!Solver} runs
    the fixpoint.  The reference for {!Seq_model.Advanced}, which plays
    the same game on packed ids. *)

open Lang
module Config = Seq_model.Config
module Event = Seq_model.Event

module Cfg_set = Set.Make (struct
  type t = Config.t
  let compare = Config.compare
end)

(* Universal branching over environment responses at a step:
   [`Forbidden] if the step is an acquire (forbidden in suffixes), the
   successors otherwise ([`Branches []] when the program terminates).
   The reference of {!Seq_model.Core.suffix}. *)
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
    let v = if Loc.Set.mem x cfg.perm then Moves.read_mem cfg x else Value.Undef in
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
         (fun post -> `Cfg (Moves.apply_release { cfg with prog = p } ~post))
         (Domain.subsets_of d cfg.perm))
  | Prog.Do_fence (Mode.Frel, p) ->
    `Branches
      (List.map
         (fun post -> `Cfg (Moves.apply_release { cfg with prog = p } ~post))
         (Domain.subsets_of d cfg.perm))

module Cfg_map = Map.Make (struct
  type t = Config.t
  let compare = Config.compare
end)

(* Can the source reach ⊥ without any acquire event, under {e every}
   oracle? (the "∀Ω. ∃ trace with Racq ∉ tr ending in ⊥" disjunct of
   Fig 6.)  Environment-controlled branches ([choose] values,
   relaxed-read values, release permission drops) are conjunctive.  All
   branching in the suffix games is adversarial (the program itself is
   deterministic), so a cycle means the environment can loop forever:
   returning false on back-edges computes the exact game value, and
   results are context-independent and cacheable in [memo]. *)
let can_fail ~budget (d : Domain.t) (memo : bool Cfg_map.t ref)
    (cfg : Config.t) : bool =
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

(* Can the source, without any acquire event and under every oracle,
   extend its execution so that its writes cover [need]?  (rule
   beh-partial: F_tgt ∪ R ⊆ F_src ∪ ⋃ released F's; writes are "banked"
   continuously, which is equivalent.)  Reaching ⊥ also wins
   (beh-failure). *)
let can_fulfill ~budget (d : Domain.t) ~(need : Loc.Set.t) (cfg : Config.t) :
    bool =
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

let analyze ~can_fail ~can_fulfill (d : Domain.t) (p : Solver.pair) :
    Solver.node =
  (* Fig 6: [∀Ω ∃ ⊥-suffix] disjunct first — it matches everything. *)
  if can_fail p.src then { Solver.local_ok = true; deps = [] }
  else
    let ln_t = Moves.line p.tgt in
    let need = Loc.Set.union ln_t.Moves.written_max p.commit in
    if not (can_fulfill ~need p.src) then
      { Solver.local_ok = false; deps = [] }
    else
      match ln_t.Moves.line_end with
      | Moves.L_bot ->
        (* only matched by the ⊥-escape, which failed *)
        { Solver.local_ok = false; deps = [] }
      | Moves.L_diverge -> { Solver.local_ok = true; deps = [] }
      | Moves.L_term (v, tcfg') ->
        let ln_s = Moves.line p.src in
        (match ln_s.Moves.line_end with
         | Moves.L_term (v', scfg') ->
           let ok =
             Value.le v v'
             && Loc.Set.subset
                  (Loc.Set.union tcfg'.Config.written p.commit)
                  scfg'.Config.written
             && Moves.mem_le d tcfg'.Config.mem scfg'.Config.mem
           in
           { Solver.local_ok = ok; deps = [] }
         | Moves.L_bot | Moves.L_diverge | Moves.L_label _ ->
           { Solver.local_ok = false; deps = [] })
      | Moves.L_label tcfg' ->
        let ln_s = Moves.line p.src in
        (match ln_s.Moves.line_end with
         | Moves.L_label scfg' ->
           let answers =
             List.map
               (fun (evs, next_t) ->
                 Respond.consume ~escape:can_fail ~commit:p.commit
                   (Respond.Plain scfg') evs next_t)
               (Moves.moves d tcfg')
           in
           { Solver.local_ok = true; deps = answers }
         | Moves.L_bot (* would have been caught by the escape *)
         | Moves.L_term _ | Moves.L_diverge ->
           { Solver.local_ok = false; deps = [] })

(** Verdict and explored pair count from a set of initial pairs. *)
let check_pairs_count ?(budget = Engine.Budget.unlimited) (d : Domain.t)
    (roots : Solver.pair list) : bool * int =
  let memo = ref Cfg_map.empty in
  let can_fail = can_fail ~budget d memo
  and can_fulfill = can_fulfill ~budget d in
  Solver.solve ~budget ~analyze:(analyze ~can_fail ~can_fulfill d) roots
