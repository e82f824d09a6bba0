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

(* The inductive enumeration of Def 2.1 — every configuration
   contributes its ⟨ε, r⟩ behavior, every move prepends its labels to
   the behaviors of its successor at one less fuel — with the recursion
   memoized on (fuel, interned configuration): the behavior set of a
   subproblem is a pure function of the configuration's value and the
   remaining fuel, so diamonds in the transition graph — different
   interleavings of environment choices reaching the same state at the
   same depth — are computed once instead of once per path.  Behaviors
   themselves are hash-consed to dense ids (a trace is a move applied to
   a shorter interned trace, a result is a packed triple), so the
   per-edge prepend folds are integer-set operations instead of deep
   trace comparisons; the id sets are materialized into one ordinary
   {!Set.t} at the very end.  [budget] is charged per distinct
   subproblem plus per behavior propagated along each edge —
   proportional to the set insertions actually performed, where the
   unmemoized recursion charges per path but folds over full behavior
   sets for free; test/test_diffcore.ml locks set equality against that
   recursion (the test-only [Seq_ref.Behavior]). *)
module Int_set = Stdlib.Set.Make (Int)

(* The memoized induction itself, over behaviors interned as ints.
   [leaf id] is the set a configuration contributes at any fuel, [bot]
   the behavior of a ⊥ move, and [edge ~src ~k evs subs acc] adds [subs],
   the behaviors after move [k] of [src] (labels [evs]), to [acc]. *)
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
            (* propagating a sub-behavior along an edge is the unit of
               work here (set insertions), so that is what the budget
               charges *)
            Engine.Budget.spend_state ~n:(Int_set.cardinal subs) budget;
            acc := edge ~src:id ~k (Core.labels core labs.(k)) subs !acc
          done;
          !acc
        end
      in
      Hashtbl.replace memo (fuel, id) result;
      result
  in
  go fuel id

let enumerate ?(budget = Engine.Budget.unlimited) (core : Core.t) ~fuel
    (cfg : Config.t) : Set.t =
  let pk = Core.packed core in
  (* results: (kind, written mask, mem id, value id) -> dense id *)
  let result_ids : (int * int * int * int, int) Hashtbl.t =
    Hashtbl.create 64
  in
  let result_rev : (int, result) Hashtbl.t = Hashtbl.create 64 in
  let result_of key r =
    match Hashtbl.find_opt result_ids key with
    | Some rid -> rid
    | None ->
      let rid = Hashtbl.length result_ids in
      Hashtbl.add result_ids key rid;
      Hashtbl.add result_rev rid (r ());
      rid
  in
  let rid_bot = result_of (0, 0, 0, 0) (fun () -> Bot) in
  (* traces: id 0 is the empty trace; every other trace is the label
     list of move (cfg id, move index) prepended to a shorter trace *)
  let trace_ids : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let trace_rev : (int, Event.t list * int) Hashtbl.t = Hashtbl.create 64 in
  let trace_count = ref 1 in
  let prepend ~src ~k evs tid =
    let key = (src, k, tid) in
    match Hashtbl.find_opt trace_ids key with
    | Some tid' -> tid'
    | None ->
      let tid' = !trace_count in
      incr trace_count;
      Hashtbl.add trace_ids key tid';
      Hashtbl.add trace_rev tid' (evs, tid);
      tid'
  in
  (* behaviors: (trace id, result id) -> dense id *)
  let behavior_ids : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let behavior_rev : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let behavior_of tid rid =
    let key = (tid, rid) in
    match Hashtbl.find_opt behavior_ids key with
    | Some bid -> bid
    | None ->
      let bid = Hashtbl.length behavior_ids in
      Hashtbl.add behavior_ids key bid;
      Hashtbl.add behavior_rev bid key;
      bid
  in
  let bid_bot = behavior_of 0 rid_bot in
  let leaf id =
    let rid =
      match Core.status core id with
      | Config.Term v ->
        result_of
          (2, Core.written_mask core id, Core.mem_id core id,
           Packed.value_id pk v)
          (fun () ->
            let c = Core.cfg core id in
            Trm (v, c.Config.written, c.Config.mem))
      | Config.Running ->
        result_of
          (1, Core.written_mask core id, 0, 0)
          (fun () -> Prt (Core.cfg core id).Config.written)
    in
    Int_set.singleton (behavior_of 0 rid)
  in
  let edge ~src ~k evs subs acc =
    if evs = [] then Int_set.union subs acc
    else
      Int_set.fold
        (fun bid acc ->
          let tid, rid = Hashtbl.find behavior_rev bid in
          Int_set.add (behavior_of (prepend ~src ~k evs tid) rid) acc)
        subs acc
  in
  let top =
    memo_fold ~budget core ~fuel ~leaf ~bot:bid_bot ~edge
      (Core.intern core cfg)
  in
  (* materialize: each distinct trace is rebuilt once *)
  let trace_mat : (int, Event.t list) Hashtbl.t = Hashtbl.create 64 in
  let rec mat_trace tid =
    if tid = 0 then []
    else
      match Hashtbl.find_opt trace_mat tid with
      | Some l -> l
      | None ->
        let evs, parent = Hashtbl.find trace_rev tid in
        let l = evs @ mat_trace parent in
        Hashtbl.add trace_mat tid l;
        l
  in
  Int_set.fold
    (fun bid acc ->
      let tid, rid = Hashtbl.find behavior_rev bid in
      Set.add (mat_trace tid, Hashtbl.find result_rev rid) acc)
    top Set.empty

(* The same memoized induction, projected onto what an SC comparison
   can observe: the (return value, printed values) of each terminating
   behavior, and whether ⊥ is reachable.  Traces never materialize: a
   printed-value list is interned as a value id consed onto a shorter
   list, an outcome as (value id, list id) with id 0 reserved for ⊥, and
   an edge prepends only its [Out] labels.  Both run on [memo_fold], so
   the budget is charged as in [enumerate]: one state per distinct
   (fuel, configuration) subproblem plus one per outcome propagated
   along an edge. *)
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
  let edge ~src:_ ~k:_ evs subs acc =
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
