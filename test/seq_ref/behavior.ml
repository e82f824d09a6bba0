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

(** The same induction built as a {!Trie}, memoized on (fuel,
    configuration) by the configurations' values: the reference for
    {!Seq_model.Behavior.trie}, which memoizes on packed ids.  The
    literal [enumerate] visits every path, so its cost grows
    exponentially with [fuel] on a loop that reads from the environment;
    this one is polynomial in the trie.  [budget] is charged one state
    per distinct subproblem. *)
module Memo = Map.Make (struct
  type t = int * Config.t

  let compare (f1, c1) (f2, c2) =
    let c = Int.compare f1 f2 in
    if c <> 0 then c else Config.compare c1 c2
end)

let trie ?(budget = Engine.Budget.unlimited) (d : Lang.Domain.t) ~fuel
    (cfg : Config.t) : Trie.t =
  let tb = Trie.table () in
  let memo = ref Memo.empty in
  let rec go fuel cfg =
    match Memo.find_opt (fuel, cfg) !memo with
    | Some n -> n
    | None ->
      Engine.Budget.spend_state budget;
      let base =
        Trie.leaf tb
          (match Config.status cfg with
           | Config.Term v -> Trm (v, cfg.Config.written, cfg.Config.mem)
           | Config.Running -> Prt cfg.Config.written)
      in
      let n =
        if fuel = 0 then base
        else
          List.fold_left
            (fun acc (evs, nxt) ->
              let subs =
                match nxt with
                | Moves.Bot -> Trie.leaf tb Bot
                | Moves.Cont cfg' -> go (fuel - 1) cfg'
              in
              Trie.union tb acc (Trie.prefix tb evs subs))
            base (Moves.moves d cfg)
      in
      memo := Memo.add (fuel, cfg) n !memo;
      n
  in
  go fuel cfg

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
