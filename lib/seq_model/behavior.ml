(** SEQ behaviors (Def 2.1), the [⊑] relation on behaviors (Def 2.3(3)),
    and bounded-complete behavior enumeration.

    A behavior is ⟨tr, r⟩ with [r ∈ {trm(v,F,M), prt(F), ⊥}].  Enumeration
    is inductive exactly as in Def 2.1: every configuration contributes its
    ⟨ε, r⟩ behavior (with [r = prt(F)] when still running), and every move
    prepends its labels.  [fuel] bounds the number of steps; on the finite
    domain this enumerates the complete behavior set of executions up to
    that length. *)

open Lang

type result =
  | Trm of Value.t * Loc.Set.t * Value.t Loc.Map.t
  | Prt of Loc.Set.t
  | Bot

type t = Event.t list * result

let compare_result r1 r2 =
  match r1, r2 with
  | Trm (v1, f1, m1), Trm (v2, f2, m2) ->
    let c = Value.compare v1 v2 in
    if c <> 0 then c
    else
      let c = Loc.Set.compare f1 f2 in
      if c <> 0 then c else Loc.Map.compare Value.compare m1 m2
  | Trm _, _ -> -1
  | _, Trm _ -> 1
  | Prt f1, Prt f2 -> Loc.Set.compare f1 f2
  | Prt _, _ -> -1
  | _, Prt _ -> 1
  | Bot, Bot -> 0

let compare (tr1, r1) (tr2, r2) =
  let c = List.compare Event.compare tr1 tr2 in
  if c <> 0 then c else compare_result r1 r2

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare
end)

(* Memory ⊑: pointwise over the domain's non-atomic locations (absent
   entries read as 0 on both sides). *)
let mem_le (d : Domain.t) m1 m2 =
  List.for_all
    (fun x ->
      Value.le
        (Loc.Map.find_default ~default:Value.zero x m1)
        (Loc.Map.find_default ~default:Value.zero x m2))
    d.Domain.na_locs

(** ⟨tr_tgt, r_tgt⟩ ⊑ ⟨tr_src, r_src⟩ (Def 2.3(3)).  The ⊥-rule matches a
    source UB behavior against any target behavior extending a ⊑-prefix. *)
let le (d : Domain.t) ((trtgt, rtgt) : t) ((trsrc, rsrc) : t) : bool =
  match rsrc with
  | Bot ->
    (* ⟨tr_tgt·tr, r⟩ ⊑ ⟨tr_src, ⊥⟩ when tr_tgt ⊑ tr_src *)
    let rec prefix_le trt trs =
      match trt, trs with
      | _, [] -> true
      | [], _ :: _ -> false
      | et :: trt', es :: trs' -> Event.le et es && prefix_le trt' trs'
    in
    ignore rtgt;
    prefix_le trtgt trsrc
  | Trm (vsrc, fsrc, msrc) ->
    (match rtgt with
     | Trm (vtgt, ftgt, mtgt) ->
       Event.trace_le trtgt trsrc && Value.le vtgt vsrc
       && Loc.Set.subset ftgt fsrc && mem_le d mtgt msrc
     | Prt _ | Bot -> false)
  | Prt fsrc ->
    (match rtgt with
     | Prt ftgt -> Event.trace_le trtgt trsrc && Loc.Set.subset ftgt fsrc
     | Trm _ | Bot -> false)

(* A behavior set as a trie over events: [ends] are the results of the
   behaviors whose trace ends at this node, [next] the events that
   continue some trace, each with the (non-empty) set of behaviors after
   it.  Both lists are sorted ([compare_result], [Event.compare]), so a
   set has exactly one trie.  Nodes are hash-consed per table: a node is
   keyed by its results' and events' interned ids and its children's
   node ids, so within a table equal sets are the same node and [union]
   memoizes on node pairs.  Node ids are unique across tables, which
   lets [equal] memoize a comparison of tries from different tables. *)
module Trie = struct
  type t = { id : int; ends : result list; next : (Event.t * t) list }

  module Result_map = Map.Make (struct
    type t = result

    let compare = compare_result
  end)

  module Event_map = Map.Make (Event)

  type table = {
    mutable results : int Result_map.t;
    mutable events : int Event_map.t;
    nodes : (int list * (int * int) list, t) Hashtbl.t;
    unions : (int * int, t) Hashtbl.t;
  }

  let fresh = Atomic.make 0

  let table () =
    {
      results = Result_map.empty;
      events = Event_map.empty;
      nodes = Hashtbl.create 64;
      unions = Hashtbl.create 64;
    }

  let result_id tb r =
    match Result_map.find_opt r tb.results with
    | Some i -> i
    | None ->
      let i = Result_map.cardinal tb.results in
      tb.results <- Result_map.add r i tb.results;
      i

  let event_id tb e =
    match Event_map.find_opt e tb.events with
    | Some i -> i
    | None ->
      let i = Event_map.cardinal tb.events in
      tb.events <- Event_map.add e i tb.events;
      i

  let node tb ends next =
    let key =
      ( List.map (result_id tb) ends,
        List.map (fun (e, n) -> (event_id tb e, n.id)) next )
    in
    match Hashtbl.find_opt tb.nodes key with
    | Some n -> n
    | None ->
      let n = { id = Atomic.fetch_and_add fresh 1; ends; next } in
      Hashtbl.add tb.nodes key n;
      n

  let leaf tb r = node tb [ r ] []
  let prefix tb evs n = List.fold_right (fun e n -> node tb [] [ (e, n) ]) evs n

  let rec union tb a b =
    if a == b then a
    else
      let key = if a.id < b.id then (a.id, b.id) else (b.id, a.id) in
      match Hashtbl.find_opt tb.unions key with
      | Some n -> n
      | None ->
        let rec ends xs ys =
          match (xs, ys) with
          | [], l | l, [] -> l
          | x :: xs', y :: ys' ->
            let c = compare_result x y in
            if c < 0 then x :: ends xs' ys
            else if c > 0 then y :: ends xs ys'
            else x :: ends xs' ys'
        in
        let rec next xs ys =
          match (xs, ys) with
          | [], l | l, [] -> l
          | ((e1, n1) as x) :: xs', ((e2, n2) as y) :: ys' ->
            let c = Event.compare e1 e2 in
            if c < 0 then x :: next xs' ys
            else if c > 0 then y :: next xs ys'
            else (e1, union tb n1 n2) :: next xs' ys'
        in
        let n = node tb (ends a.ends b.ends) (next a.next b.next) in
        Hashtbl.add tb.unions key n;
        n

  let equal a b =
    let same = Hashtbl.create 64 in
    let rec eq a b =
      a == b
      || Hashtbl.mem same (a.id, b.id)
      || List.equal (fun r1 r2 -> compare_result r1 r2 = 0) a.ends b.ends
         && List.equal
              (fun (e1, n1) (e2, n2) -> Event.compare e1 e2 = 0 && eq n1 n2)
              a.next b.next
         && (Hashtbl.add same (a.id, b.id) ();
             true)
    in
    eq a b

  let fold f n acc =
    let rec go rev_tr n acc =
      let acc =
        match n.ends with
        | [] -> acc
        | ends ->
          let tr = List.rev rev_tr in
          List.fold_left (fun acc r -> f (tr, r) acc) acc ends
      in
      List.fold_left (fun acc (e, c) -> go (e :: rev_tr) c acc) acc n.next
    in
    go [] n acc
end

(* The inductive enumeration of Def 2.1 — every configuration
   contributes its ⟨ε, r⟩ behavior, every move prepends its labels to
   the behaviors of its successor at one less fuel — with the recursion
   memoized on (fuel, interned configuration): the behavior set of a
   subproblem is a pure function of the configuration's value and the
   remaining fuel, so diamonds in the transition graph — different
   interleavings of environment choices reaching the same state at the
   same depth — are computed once instead of once per path.  Each
   subproblem's set is a hash-consed {!Trie} node, so a set costs the
   distinct suffixes of its traces, not the traces themselves: the
   number of behaviors grows exponentially with the fuel on a loop that
   reads from the environment, its trie only with the subproblems.
   [budget] is charged one state per distinct subproblem. *)
let trie ?(budget = Engine.Budget.unlimited) (core : Core.t) ~fuel
    (cfg : Config.t) : Trie.t =
  let tb = Trie.table () in
  let bot = Trie.leaf tb Bot in
  let leaf id =
    let c = Core.cfg core id in
    Trie.leaf tb
      (match Config.status c with
       | Config.Term v -> Trm (v, c.Config.written, c.Config.mem)
       | Config.Running -> Prt c.Config.written)
  in
  let memo : (int * int, Trie.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go fuel id =
    match Hashtbl.find_opt memo (fuel, id) with
    | Some n -> n
    | None ->
      Engine.Budget.spend_state budget;
      let acc = ref (leaf id) in
      if fuel > 0 then begin
        let labs = Core.moves_labels core id in
        let nexts = Core.moves_next core id in
        for k = 0 to Array.length labs - 1 do
          let subs = if nexts.(k) < 0 then bot else go (fuel - 1) nexts.(k) in
          acc :=
            Trie.union tb !acc
              (Trie.prefix tb (Core.labels core labs.(k)) subs)
        done
      end;
      Hashtbl.replace memo (fuel, id) !acc;
      !acc
  in
  go fuel (Core.intern core cfg)

(* The trie's behaviors, one set insertion (charged to [budget]) each. *)
let enumerate ?(budget = Engine.Budget.unlimited) (core : Core.t) ~fuel
    (cfg : Config.t) : Set.t =
  Trie.fold
    (fun b acc ->
      Engine.Budget.spend_state budget;
      Set.add b acc)
    (trie ~budget core ~fuel cfg)
    Set.empty

(* The memoized induction over outcomes interned as ints, for
   [outcomes].  [leaf id] is the set a configuration contributes at any
   fuel, [bot] the outcome of a ⊥ move, and [edge evs subs acc] adds
   [subs], the outcomes after a move labelled [evs], to [acc]. *)
module Int_set = Stdlib.Set.Make (Int)

let memo_fold ~budget (core : Core.t) ~fuel ~leaf ~bot ~edge id : Int_set.t =
  let memo : (int * int, Int_set.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go fuel id =
    match Hashtbl.find_opt memo (fuel, id) with
    | Some s -> s
    | None ->
      Engine.Budget.spend_state budget;
      let acc = leaf id in
      let result =
        if fuel = 0 then acc
        else begin
          let labs = Core.moves_labels core id in
          let nexts = Core.moves_next core id in
          let acc = ref acc in
          for k = 0 to Array.length labs - 1 do
            let subs =
              if nexts.(k) < 0 then Int_set.singleton bot
              else go (fuel - 1) nexts.(k)
            in
            (* propagating a sub-outcome along an edge is the unit of
               work here (set insertions), so that is what the budget
               charges *)
            Engine.Budget.spend_state ~n:(Int_set.cardinal subs) budget;
            acc := edge (Core.labels core labs.(k)) subs !acc
          done;
          !acc
        end
      in
      Hashtbl.replace memo (fuel, id) result;
      result
  in
  go fuel id


(* The same memoized induction, projected onto what an SC comparison
   can observe: the (return value, printed values) of each terminating
   behavior, and whether ⊥ is reachable.  Traces never materialize: a
   printed-value list is interned as a value id consed onto a shorter
   list, an outcome as (value id, list id) with id 0 reserved for ⊥, and
   an edge prepends only its [Out] labels.  The budget is charged one
   state per distinct (fuel, configuration) subproblem plus one per
   outcome propagated along an edge. *)
module Outcome_set = Stdlib.Set.Make (struct
  type t = Value.t * Value.t list

  let compare (v1, p1) (v2, p2) =
    let c = Value.compare v1 v2 in
    if c <> 0 then c else List.compare Value.compare p1 p2
end)

type outcomes = { returns : Outcome_set.t; bot : bool }

let outcomes ~budget (core : Core.t) ~fuel (cfg : Config.t) : outcomes =
  let pk = Core.packed core in
  (* ids from 1: id 0 is the empty list, resp. ⊥ *)
  let intern (ids : (int * int, int) Hashtbl.t) rev key =
    match Hashtbl.find_opt ids key with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids + 1 in
      Hashtbl.add ids key i;
      Hashtbl.add rev i key;
      i
  in
  let list_ids = Hashtbl.create 64 and list_rev = Hashtbl.create 64 in
  let cons vid lid = intern list_ids list_rev (vid, lid) in
  let outcome_ids = Hashtbl.create 64 and outcome_rev = Hashtbl.create 64 in
  let outcome vid lid = intern outcome_ids outcome_rev (vid, lid) in
  let leaf id =
    match Core.status core id with
    | Config.Term v -> Int_set.singleton (outcome (Packed.value_id pk v) 0)
    | Config.Running -> Int_set.empty
  in
  let edge evs subs acc =
    match
      List.filter_map
        (function Event.Out v -> Some (Packed.value_id pk v) | _ -> None)
        evs
    with
    | [] -> Int_set.union subs acc
    | outs ->
      Int_set.fold
        (fun oid acc ->
          if oid = 0 then Int_set.add 0 acc
          else
            let vid, lid = Hashtbl.find outcome_rev oid in
            Int_set.add (outcome vid (List.fold_right cons outs lid)) acc)
        subs acc
  in
  let top =
    memo_fold ~budget core ~fuel ~leaf ~bot:0 ~edge (Core.intern core cfg)
  in
  let rec values lid =
    if lid = 0 then []
    else
      let vid, tl = Hashtbl.find list_rev lid in
      Packed.value_of_id pk vid :: values tl
  in
  Int_set.fold
    (fun oid o ->
      if oid = 0 then { o with bot = true }
      else
        let vid, lid = Hashtbl.find outcome_rev oid in
        {
          o with
          returns =
            Outcome_set.add (Packed.value_of_id pk vid, values lid) o.returns;
        })
    top
    { returns = Outcome_set.empty; bot = false }

let pp_result ppf = function
  | Trm (v, f, m) ->
    Fmt.pf ppf "trm(%a,%a,%a)" Value.pp v Loc.Set.pp f (Loc.Map.pp Value.pp) m
  | Prt f -> Fmt.pf ppf "prt(%a)" Loc.Set.pp f
  | Bot -> Fmt.string ppf "⊥"

let pp ppf (tr, r) =
  Fmt.pf ppf "⟨%a, %a⟩" Event.pp_trace tr pp_result r
