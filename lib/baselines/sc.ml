(** Sequentially consistent interleaving baseline with happens-before data
    race detection.

    Used for (i) the catch-fire comparison (E6: under C/C++11-style
    semantics a data race is UB, which makes load introduction unsound),
    and (ii) DRF-guarantee experiments (E7).

    Memory is a flat map; races are the shared happens-before discipline
    ({!Hb}): release/acquire (and RMW) accesses synchronize via
    per-location release clocks; relaxed accesses do not synchronize but
    also do not race (only conflicting pairs with at least one non-atomic
    access race, §5). *)

open Lang

type state = {
  progs : Prog.state list;
  mem : Value.t Loc.Map.t;
  outs : Value.t list list;  (* per thread, most recent first *)
  hb : Hb.t;
  raced_strict : Loc.Set.t;
      (* locations with a conflicting unordered pair of any access modes —
         the premises of the DRF-SC guarantee (empty set; no access in the
         fragment is SC) and of DRF-LOCK (⊆ the lock locations) *)
}

type behavior = Promising.Machine.behavior =
  | Ret of (Value.t * Value.t list) list
  | Bot

module Behavior_set = Promising.Machine.Behavior_set

type result = {
  behaviors : Behavior_set.t;
  races : bool;  (** some interleaving contains a data race (≥1 na access) *)
  strict_races : bool;
      (** some interleaving contains a conflicting unordered pair of any
          access modes (the DRF-SC premise) *)
  strict_race_locs : Loc.Set.t;
      (** the locations of such pairs (for the DRF-LOCK premise) *)
  truncated : bool;
  states : int;
}

let read_mem st x = Loc.Map.find_default ~default:Value.zero x st.mem

(* [raced_strict], plus [x] if the access races strictly. *)
let strict st tid x ~write =
  let racy = if write then Hb.strict_write_race else Hb.strict_read_race in
  if racy st.hb ~tid x then Loc.Set.add x st.raced_strict else st.raced_strict

module Step = struct
  type nonrec state = state

  let compare s1 s2 =
    let c = List.compare Prog.compare_state s1.progs s2.progs in
    if c <> 0 then c
    else
      let c = Hb.compare s1.hb s2.hb in
      if c <> 0 then c
      else
        let c = Loc.Map.compare Value.compare s1.mem s2.mem in
        if c <> 0 then c
        else
          let c =
            List.compare (List.compare Value.compare) s1.outs s2.outs
          in
          if c <> 0 then c
          else Loc.Set.compare s1.raced_strict s2.raced_strict

  let init progs =
    let n = List.length progs in
    {
      progs = List.map Prog.init progs;
      mem = Loc.Map.empty;
      outs = List.init n (fun _ -> []);
      hb = Hb.make n;
      raced_strict = Loc.Set.empty;
    }

  let progs st = st.progs
  let outs st = st.outs
  let drained _ = true

  let thread_steps values st tid =
    let with_prog st p = { st with progs = Explore.set_nth st.progs tid p } in
    match Prog.step (List.nth st.progs tid) with
    | Prog.Terminated _ -> []
    | Prog.Undefined -> [ `Ub ]
    | Prog.Silent p -> [ `Next (with_prog st p) ]
    | Prog.Do_out (v, p) ->
      let outs = Explore.set_nth st.outs tid (v :: List.nth st.outs tid) in
      [ `Next (with_prog { st with outs } p) ]
    | Prog.Choice f -> List.map (fun v -> `Next (with_prog st (f v))) values
    | Prog.Do_read (o, x, f) ->
      let raced_strict = strict st tid x ~write:false in
      let hb =
        Hb.read st.hb ~tid x ~atomic:(Mode.read_is_atomic o)
          ~acq:(o = Mode.Racq)
      in
      [ `Next (with_prog { st with hb; raced_strict } (f (read_mem st x))) ]
    | Prog.Do_write (o, x, v, p) ->
      let raced_strict = strict st tid x ~write:true in
      let hb =
        Hb.write st.hb ~tid x ~atomic:(Mode.write_is_atomic o)
          ~rel:(o = Mode.Wrel)
      in
      let mem = Loc.Map.add x v st.mem in
      [ `Next (with_prog { st with hb; raced_strict; mem } p) ]
    | Prog.Do_update (x, f) ->
      (match f (read_mem st x) with
       | Prog.Upd_fault -> [ `Ub ]
       | Prog.Upd_read_only p ->
         let raced_strict = strict st tid x ~write:true in
         let hb = Hb.update st.hb ~tid x ~write:false in
         [ `Next (with_prog { st with hb; raced_strict } p) ]
       | Prog.Upd_write (v_new, p) ->
         let raced_strict = strict st tid x ~write:true in
         let hb = Hb.update st.hb ~tid x ~write:true in
         let mem = Loc.Map.add x v_new st.mem in
         [ `Next (with_prog { st with hb; raced_strict; mem } p) ])
    | Prog.Do_fence (m, p) ->
      (* SC baseline: fences are global synchronisation barriers. *)
      [ `Next (with_prog { st with hb = Hb.fence st.hb ~tid m } p) ]

  (* (data race seen, strict-race locations) *)
  type race = bool * Loc.Set.t

  let no_race = (false, Loc.Set.empty)

  let observe ((races, locs) as r) st =
    let races' = races || Hb.raced st.hb in
    let locs' = Loc.Set.union locs st.raced_strict in
    if races' = races && locs' == locs then r else (races', locs')
end

module E = Explore.Make (Step)

(** Exhaustive SC interleaving exploration. *)
let explore ?values ?max_states ?budget (progs : Stmt.t list) : result =
  let r = E.explore ?values ?max_states ?budget progs in
  let races, strict_race_locs = r.Explore.races in
  {
    behaviors = r.Explore.behaviors;
    races;
    strict_races = not (Loc.Set.is_empty strict_race_locs);
    strict_race_locs;
    truncated = r.Explore.truncated;
    states = r.Explore.states;
  }
