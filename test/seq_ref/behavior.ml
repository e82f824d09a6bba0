(** The inductive enumeration of Def 2.1, literally: every configuration
    contributes its ⟨ε, r⟩ behavior, every move of {!Moves.moves}
    prepends its labels to the behaviors of its successor at one less
    fuel.  The reference for {!Seq_model.Behavior.enumerate}, which
    memoizes the same induction over packed ids.  [budget] is charged
    one state per visited configuration, i.e. per path. *)

open Seq_model
open Seq_model.Behavior

let enumerate ?(budget = Engine.Budget.unlimited) (d : Lang.Domain.t) ~fuel
    (cfg : Config.t) : Set.t =
  let rec go fuel cfg acc =
    Engine.Budget.spend_state budget;
    let base =
      match Config.status cfg with
      | Config.Term v -> ([], Trm (v, cfg.Config.written, cfg.Config.mem))
      | Config.Running -> ([], Prt cfg.Config.written)
    in
    let acc = Set.add base acc in
    if fuel = 0 then acc
    else
      List.fold_left
        (fun acc (evs, nxt) ->
          let subs =
            match nxt with
            | Moves.Bot -> Set.singleton ([], Bot)
            | Moves.Cont cfg' -> go (fuel - 1) cfg' Set.empty
          in
          Set.fold (fun (tr, r) acc -> Set.add (evs @ tr, r) acc) subs acc)
        acc (Moves.moves d cfg)
  in
  go fuel cfg Set.empty

(** Enumeration-based simple refinement (Def 2.4) at one initial
    configuration pair: every target behavior must be ⊑-matched by a
    source behavior; [Error b] returns an unmatched target behavior.  The
    source gets twice the fuel so that matches needing more source steps
    (e.g. its unlabeled prefix) are not cut off. *)
let refines_at ?budget (d : Lang.Domain.t) ~fuel ~(src : Config.t)
    ~(tgt : Config.t) : (unit, t) Stdlib.result =
  let src_behs = enumerate ?budget d ~fuel:(2 * fuel) src in
  let tgt_behs = enumerate ?budget d ~fuel tgt in
  let matched bt = Set.exists (fun bs -> le d bt bs) src_behs in
  match Set.to_seq tgt_behs |> Seq.find (fun bt -> not (matched bt)) with
  | None -> Ok ()
  | Some bt -> Error bt

(** The behaviors whose traces the oracle allows — Def 3.3's restriction
    of the behavior sets. *)
let allowed ?budget (d : Lang.Domain.t) (om : Oracle.t) ~fuel
    (cfg : Config.t) : Set.t =
  Set.filter (fun (tr, _) -> Oracle.allows om tr) (enumerate ?budget d ~fuel cfg)
