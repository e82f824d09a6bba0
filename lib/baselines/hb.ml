(** Happens-before data-race detection shared by the SC, TSO and ARMv8
    machines.

    A self-contained component each machine threads through its states:
    synchronization order (release/acquire edges, RMWs, fences) is the
    same under SC, TSO and ARMv8 — buffering relaxes {e visibility}, not
    happens-before — so the race verdicts of all machines use one
    definition: a race is a conflicting unordered pair with at least one
    non-atomic access (§5).

    The per-location access history ([meta]) is deliberately excluded
    from {!compare}: it is a function of the history already summarised
    by (clocks, raced) for exploration purposes. *)

open Lang

type loc_meta = {
  w_na : (int * int) option;  (* epoch of last non-atomic write *)
  w_at : (int * int) option;  (* epoch of last atomic write *)
  r_na : Vclock.t;  (* join of non-atomic read clocks *)
  r_at : Vclock.t;  (* join of atomic read clocks *)
  release : Vclock.t;  (* release clock (for acq/rel synchronisation) *)
}

type t = {
  n : int;  (* thread count *)
  clocks : Vclock.t list;
  meta : loc_meta Loc.Map.t;
  raced : bool;
}

let make n =
  {
    n;
    clocks = List.init n (fun tid -> Vclock.init_thread n tid);
    meta = Loc.Map.empty;
    raced = false;
  }

let raced h = h.raced

let empty_meta n =
  {
    w_na = None;
    w_at = None;
    r_na = Vclock.make n;
    r_at = Vclock.make n;
    release = Vclock.make n;
  }

(* The default history is built only for a location not accessed yet. *)
let get_meta h x =
  match Loc.Map.find x h.meta with
  | m -> m
  | exception Not_found -> empty_meta h.n

let epoch_ok e c = match e with None -> true | Some ep -> Vclock.epoch_le ep c

let racy_read h tid x ~atomic =
  let m = get_meta h x in
  let c = List.nth h.clocks tid in
  if atomic then not (epoch_ok m.w_na c)
  else not (epoch_ok m.w_na c && epoch_ok m.w_at c)

let racy_write h tid x ~atomic =
  let m = get_meta h x in
  let c = List.nth h.clocks tid in
  if atomic then not (epoch_ok m.w_na c && Vclock.le m.r_na c)
  else
    not
      (epoch_ok m.w_na c && epoch_ok m.w_at c && Vclock.le m.r_na c
     && Vclock.le m.r_at c)

(* A strict race ignores access modes: the access conflicts as if it
   were non-atomic. *)
let strict_read_race h ~tid x = racy_read h tid x ~atomic:false
let strict_write_race h ~tid x = racy_write h tid x ~atomic:false

let record_read h tid x ~atomic =
  let m = get_meta h x in
  let c = List.nth h.clocks tid in
  let m =
    if atomic then { m with r_at = Vclock.join m.r_at c }
    else { m with r_na = Vclock.join m.r_na c }
  in
  { h with meta = Loc.Map.add x m h.meta }

let record_write h tid x ~atomic =
  let m = get_meta h x in
  let c = List.nth h.clocks tid in
  let ep = Some (tid, c.(tid)) in
  let m = if atomic then { m with w_at = ep } else { m with w_na = ep } in
  { h with meta = Loc.Map.add x m h.meta }

(* Acquire: join the location's release clock into ours. *)
let do_acquire h tid x =
  let m = get_meta h x in
  let c = Vclock.join (List.nth h.clocks tid) m.release in
  { h with clocks = Explore.set_nth h.clocks tid c }

(* Release: tick our clock and publish it on the location. *)
let do_release h tid x =
  let c = Vclock.tick (List.nth h.clocks tid) tid in
  let h = { h with clocks = Explore.set_nth h.clocks tid c } in
  let m = get_meta h x in
  let m = { m with release = Vclock.join m.release c } in
  { h with meta = Loc.Map.add x m h.meta }

(** A read access: race check against the pre-state, acquire
    synchronisation when [acq], then history recording. *)
let read h ~tid x ~atomic ~acq =
  let h =
    if h.raced || not (racy_read h tid x ~atomic) then h
    else { h with raced = true }
  in
  let h = if acq then do_acquire h tid x else h in
  record_read h tid x ~atomic

let write h ~tid x ~atomic ~rel =
  let h =
    if h.raced || not (racy_write h tid x ~atomic) then h
    else { h with raced = true }
  in
  let h = if rel then do_release h tid x else h in
  record_write h tid x ~atomic

(** An RMW: an atomic acquire read, plus a release write when [write]
    (a failed CAS is read-only). *)
let update h ~tid x ~write =
  let h =
    if h.raced || not (racy_write h tid x ~atomic:true) then h
    else { h with raced = true }
  in
  let h = do_acquire h tid x in
  if not write then record_read h tid x ~atomic:true
  else
    let h = do_release h tid x in
    let h = record_read h tid x ~atomic:true in
    record_write h tid x ~atomic:true

(* Fences synchronise through a distinguished token location. *)
let fence h ~tid (m : Mode.fence) =
  let tok = Loc.make "__fence__" in
  match m with
  | Mode.Facq -> do_acquire h tid tok
  | Mode.Frel -> do_release h tid tok
  | Mode.Facqrel | Mode.Fsc -> do_release (do_acquire h tid tok) tid tok

let compare h1 h2 =
  let c = List.compare Vclock.compare h1.clocks h2.clocks in
  if c <> 0 then c else Bool.compare h1.raced h2.raced
