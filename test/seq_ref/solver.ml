(** The explore-then-fixpoint loop of both set-based simulation games.

    A pair is a commitment set R plus a target and a source
    configuration; the simple game (Def 2.4) keeps R = ∅.  Phase 1
    registers a pair before analyzing it (cutting cycles), charges the
    budget one state per new pair, and explores its dependencies in
    order; phase 2 prunes to the greatest fixpoint by repeated full
    passes, polling the budget at every pair.  {!Seq_model.Pair_graph}
    solves the packed games with the same pair set, order and spend
    points, so verdicts and explored pair counts must agree. *)

open Lang
module Config = Seq_model.Config

type pair = Seq_model.Advanced.pair = {
  commit : Loc.Set.t;
  tgt : Config.t;
  src : Config.t;
}

(** The source's answer to one target move. *)
type answer =
  | Const of bool
  | Dep of pair  (** holds iff this pair holds *)

(** A pair's local obligation and its answers, one per instantiated
    target move. *)
type node = { local_ok : bool; deps : answer list }

module Pair_map = Map.Make (struct
  type t = pair

  let compare a b =
    let c = Loc.Set.compare a.commit b.commit in
    if c <> 0 then c
    else
      let c = Config.compare a.tgt b.tgt in
      if c <> 0 then c else Config.compare a.src b.src
end)

(** Whether every root lies in the greatest fixpoint of the pair graph
    [analyze] spans, and the number of pairs explored. *)
let solve ~budget ~(analyze : pair -> node) (roots : pair list) : bool * int =
  let nodes = ref Pair_map.empty in
  let rec explore p =
    if not (Pair_map.mem p !nodes) then begin
      Engine.Budget.spend_state budget;
      nodes := Pair_map.add p { local_ok = true; deps = [] } !nodes;
      let node = analyze p in
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
