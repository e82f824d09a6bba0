(** An ARMv8-flavoured weak machine: bounded local reordering of
    independent accesses (see armv8.mli and docs/BACKENDS.md).

    Memory keeps a {e per-location write history} (append-only message
    lists; index 0 is the implicit initial zero).  Each thread carries:

    - a store buffer drained {e per-location FIFO}: entries to the same
      location commit in issue order, entries to different locations
      commit in any order — store-store reordering;
    - a {e read floor} per location: the minimal history index the
      thread may still read.  A relaxed load may read {e any} message at
      or above the floor — reading a stale message of an independent
      location is exactly load-load/load-store reordering.  Reads raise
      the floor of their own location only (per-location coherence);
      writes raise it when they commit.

    Barriers restrict the reordering:
    - a {e release store} drains the buffer and writes through a message
      carrying the writer's floor snapshot (its view);
    - an {e acquire load} joins the view of the message it reads into
      its floor — so reading a released flag publishes everything the
      writer had observed (MP-rel-acq stays forbidden);
    - {e fences} (all modes, conservatively a full dmb) drain the buffer
      and raise every floor to the newest message;
    - RMWs drain, then atomically read the newest message (acquire) and
      append (release).

    The machine executes instructions in program order — no load
    speculation — so LB-style (write-to-read causality) reorderings are
    not exhibited; MP-rlx and SB are.  It is also not multi-copy-atomic
    (stale reads are per-thread), so IRIW-style outcomes are permitted —
    weaker than real ARMv8, which is OMCA; the E15 grid documents this.
    Race detection ({!Hb}) is the shared happens-before discipline, and
    the exploration is the shared {!Baselines.Explore}. *)

open Lang
open Baselines

type msg = {
  v : Value.t;
  view : int Loc.Map.t;  (* writer's floor snapshot; empty for rlx/na *)
}

type state = {
  progs : Prog.state list;
  bufs : (Loc.t * Value.t) list list;  (* per thread, issue order *)
  hist : msg list Loc.Map.t;  (* per location, oldest first, incl. initial *)
  floors : int Loc.Map.t list;  (* per thread; absent location = 0 *)
  outs : Value.t list list;
  hb : Hb.t;
}

let name = "armv8"
let init_msg = { v = Value.zero; view = Loc.Map.empty }
let hist_of st x = Loc.Map.find_default ~default:[ init_msg ] x st.hist
let newest st x = List.length (hist_of st x) - 1
let nth_msg st x i = List.nth (hist_of st x) i

(* Append a message; returns the state and the new index. *)
let append st x m =
  let h = hist_of st x in
  ({ st with hist = Loc.Map.add x (h @ [ m ]) st.hist }, List.length h)

let floor_of st tid x =
  Loc.Map.find_default ~default:0 x (List.nth st.floors tid)

(* Floors store only nonzero entries so states stay canonical. *)
let raise_floor st tid x i =
  if i <= floor_of st tid x then st
  else
    let f = Loc.Map.add x i (List.nth st.floors tid) in
    { st with floors = Explore.set_nth st.floors tid f }

let join_view st tid (view : int Loc.Map.t) =
  Loc.Map.fold (fun x i st -> raise_floor st tid x i) view st

(* Newest own-buffer entry for [x], if any (store-to-load forwarding,
   mandatory: per-location coherence). *)
let forwarded buf x =
  List.fold_left
    (fun acc (y, v) -> if Loc.compare y x = 0 then Some v else acc)
    None buf

(* Commit one buffered entry: append a viewless message and raise the
   writer's own floor (own-write coherence). *)
let commit st tid x v =
  let st, i = append st x { v; view = Loc.Map.empty } in
  raise_floor st tid x i

let drain_all st tid =
  let buf = List.nth st.bufs tid in
  let st = { st with bufs = Explore.set_nth st.bufs tid [] } in
  List.fold_left (fun st (x, v) -> commit st tid x v) st buf

(* Buffer entries drainable now: the first entry of each location
   (per-location FIFO, any order across locations). *)
let drainable buf =
  let rec go seen idx = function
    | [] -> []
    | (x, v) :: rest ->
      let tail = go (Loc.Set.add x seen) (idx + 1) rest in
      if Loc.Set.mem x seen then tail else (idx, x, v) :: tail
  in
  go Loc.Set.empty 0 buf

let remove_nth l i = List.filteri (fun j _ -> j <> i) l

(** Successors of [st] by one step of thread [tid]: one drain per
    drainable buffer entry, plus its program step, plus a UB flag. *)
let thread_steps (values : Value.t list) (st : state) (tid : int) :
    [ `Next of state | `Ub ] list =
  let prog = List.nth st.progs tid in
  let buf = List.nth st.bufs tid in
  let with_prog st p = { st with progs = Explore.set_nth st.progs tid p } in
  let drains =
    List.map
      (fun (idx, x, v) ->
        let bufs = Explore.set_nth st.bufs tid (remove_nth buf idx) in
        let st = { st with bufs } in
        `Next (commit st tid x v))
      (drainable buf)
  in
  let read_successors st x ~acq f =
    (* Every message at or above the floor is readable. *)
    let lo = floor_of st tid x in
    let hi = newest st x in
    List.init (hi - lo + 1) (fun k ->
        let i = lo + k in
        let m = nth_msg st x i in
        let st = if acq then join_view st tid m.view else st in
        let st = raise_floor st tid x i in
        `Next (with_prog st (f m.v)))
  in
  let prog_steps =
    match Prog.step prog with
    | Prog.Terminated _ -> []
    | Prog.Undefined -> [ `Ub ]
    | Prog.Silent p -> [ `Next (with_prog st p) ]
    | Prog.Do_out (v, p) ->
      let outs = Explore.set_nth st.outs tid (v :: List.nth st.outs tid) in
      [ `Next (with_prog { st with outs } p) ]
    | Prog.Choice f -> List.map (fun v -> `Next (with_prog st (f v))) values
    | Prog.Do_read (o, x, f) ->
      let atomic = Mode.read_is_atomic o in
      let acq = o = Mode.Racq in
      let st = { st with hb = Hb.read st.hb ~tid x ~atomic ~acq } in
      (match forwarded buf x with
       | Some v -> [ `Next (with_prog st (f v)) ]
       | None -> read_successors st x ~acq f)
    | Prog.Do_write (o, x, v, p) ->
      let atomic = Mode.write_is_atomic o in
      if o = Mode.Wrel then begin
        let st = drain_all st tid in
        let st = { st with hb = Hb.write st.hb ~tid x ~atomic ~rel:true } in
        (* Write through, carrying the post-drain floor as the view. *)
        let st', i = append st x { v; view = List.nth st.floors tid } in
        [ `Next (with_prog (raise_floor st' tid x i) p) ]
      end
      else begin
        let st = { st with hb = Hb.write st.hb ~tid x ~atomic ~rel:false } in
        let bufs = Explore.set_nth st.bufs tid (buf @ [ (x, v) ]) in
        [ `Next (with_prog { st with bufs } p) ]
      end
    | Prog.Do_update (x, f) ->
      (* RMW: drain, then atomically acquire-read the newest message and
         release-append the result. *)
      let st = drain_all st tid in
      let i = newest st x in
      let m = nth_msg st x i in
      (match f m.v with
       | Prog.Upd_fault -> [ `Ub ]
       | Prog.Upd_read_only p ->
         let st = { st with hb = Hb.update st.hb ~tid x ~write:false } in
         let st = join_view st tid m.view in
         [ `Next (with_prog (raise_floor st tid x i) p) ]
       | Prog.Upd_write (v_new, p) ->
         let st = { st with hb = Hb.update st.hb ~tid x ~write:true } in
         let st = join_view st tid m.view in
         let st = raise_floor st tid x i in
         let st', j = append st x { v = v_new; view = List.nth st.floors tid } in
         [ `Next (with_prog (raise_floor st' tid x j) p) ])
    | Prog.Do_fence (m, p) ->
      (* Conservatively a full barrier (dmb sy): drain and advance every
         floor to the newest message. *)
      let st = drain_all st tid in
      let st = { st with hb = Hb.fence st.hb ~tid m } in
      let st =
        Loc.Map.fold
          (fun x h st -> raise_floor st tid x (List.length h - 1))
          st.hist st
      in
      [ `Next (with_prog st p) ]
  in
  drains @ prog_steps

module Step = struct
  type nonrec state = state

  let compare_msg m1 m2 =
    let c = Value.compare m1.v m2.v in
    if c <> 0 then c else Loc.Map.compare Int.compare m1.view m2.view

  let compare_buf = List.compare (fun (x1, v1) (x2, v2) ->
      let c = Loc.compare x1 x2 in
      if c <> 0 then c else Value.compare v1 v2)

  let compare s1 s2 =
    let c = List.compare Prog.compare_state s1.progs s2.progs in
    if c <> 0 then c
    else
      let c = List.compare compare_buf s1.bufs s2.bufs in
      if c <> 0 then c
      else
        let c = Loc.Map.compare (List.compare compare_msg) s1.hist s2.hist in
        if c <> 0 then c
        else
          let c =
            List.compare (Loc.Map.compare Int.compare) s1.floors s2.floors
          in
          if c <> 0 then c
          else
            let c =
              List.compare (List.compare Value.compare) s1.outs s2.outs
            in
            if c <> 0 then c else Hb.compare s1.hb s2.hb

  let init progs =
    let n = List.length progs in
    {
      progs = List.map Prog.init progs;
      bufs = List.init n (fun _ -> []);
      hist = Loc.Map.empty;
      floors = List.init n (fun _ -> Loc.Map.empty);
      outs = List.init n (fun _ -> []);
      hb = Hb.make n;
    }

  let progs st = st.progs
  let outs st = st.outs
  let drained st = List.for_all (fun b -> b = []) st.bufs
  let thread_steps = thread_steps

  type race = bool

  let no_race = false
  let observe races st = races || Hb.raced st.hb
end

module E = Explore.Make (Step)

(** Exhaustive bounded ARMv8 exploration. *)
let explore ?values ?max_states ?budget progs =
  Backend.of_explore (E.explore ?values ?max_states ?budget progs)
