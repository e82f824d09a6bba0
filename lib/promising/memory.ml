(** PS_na memory: for each location, the timestamp-sorted list of messages
    (including the initialization message ⟨x@0, 0, ⊥⟩).

    New-message insertion enumerates canonical positions: the midpoint of
    every gap between consecutive messages (unless the successor is
    attached — RMW atomicity) and a point above the maximum.  Because
    behaviors only depend on the relative order of timestamps, and explored
    states are deduplicated up to order-isomorphism, midpoints lose no
    behaviors. *)

open Lang

type t = {
  msgs : Message.t list Loc.Map.t;  (* sorted by ts, ascending *)
  scv : View.t;
      (* the global SC view [S] exchanged by SC fences (PS2-style; ⊥ when
         the program has no SC fences) *)
}

let init (locs : Loc.t list) : t =
  let msgs =
    List.fold_left
      (fun m x ->
        Loc.Map.add x
          [ {
              Message.loc = x;
              ts = Time.zero;
              attached = false;
              payload = Message.Concrete { value = Value.zero; view = View.bot };
            } ]
          m)
      Loc.Map.empty locs
  in
  { msgs; scv = View.bot }

let messages_at (mem : t) (x : Loc.t) : Message.t list =
  Loc.Map.find_default ~default:[] x mem.msgs

let all_messages (mem : t) : Message.t list =
  Loc.Map.fold (fun _ ms acc -> ms @ acc) mem.msgs []

let sc_view (mem : t) = mem.scv
let with_sc_view (mem : t) scv = { mem with scv }

let compare (a : t) (b : t) =
  let c = Loc.Map.compare (List.compare Message.compare) a.msgs b.msgs in
  if c <> 0 then c else View.compare a.scv b.scv

(* Exact equality, [==] first at every level: the same messages at the
   same timestamps.  It implies [compare a b = 0] and is not invariant
   under timestamp order-isomorphism (x messages at 0, 1/2, 1 and at 0,
   1, 2 differ), which is what a cache of concrete successors needs:
   other threads' views name these very timestamps. *)
let equal (a : t) (b : t) =
  a == b
  || Loc.Map.equal
       (fun ms1 ms2 -> ms1 == ms2 || List.equal Message.equal ms1 ms2)
       a.msgs b.msgs
     && View.equal a.scv b.scv

(** Canonical timestamps for inserting a new message at [x], optionally
    above [floor].  Returns pairs [(ts, pred_ts)] where [pred_ts] is the
    timestamp of the predecessor message (needed for attached inserts). *)
let insert_positions ?(floor = Time.zero) (mem : t) (x : Loc.t) :
    (Time.t * Time.t) list =
  let ms = messages_at mem x in
  let rec gaps = function
    | [] -> []
    | [ last ] -> [ (Time.above last.Message.ts, last.Message.ts) ]
    | m1 :: (m2 :: _ as rest) ->
      let here =
        if m2.Message.attached then []
        else [ (Time.between m1.Message.ts m2.Message.ts, m1.Message.ts) ]
      in
      here @ gaps rest
  in
  List.filter (fun (ts, _) -> Time.lt floor ts) (gaps ms)

(** Insert a message whose timestamp does not collide (caller obtained it
    from {!insert_positions}). *)
let add (mem : t) (m : Message.t) : t =
  let ms = messages_at mem m.Message.loc in
  let rec ins = function
    | [] -> [ m ]
    | m' :: rest ->
      if Time.lt m.Message.ts m'.Message.ts then m :: m' :: rest
      else m' :: ins rest
  in
  { mem with msgs = Loc.Map.add m.Message.loc (ins ms) mem.msgs }

(** Replace a message at the same (loc, ts) — the [lower] step. *)
let replace (mem : t) ~(old_m : Message.t) ~(new_m : Message.t) : t =
  assert (Loc.equal old_m.Message.loc new_m.Message.loc);
  assert (Time.equal old_m.Message.ts new_m.Message.ts);
  let ms = messages_at mem old_m.Message.loc in
  let ms =
    List.map (fun m -> if Message.equal m old_m then new_m else m) ms
  in
  { mem with msgs = Loc.Map.add old_m.Message.loc ms mem.msgs }

(** Concrete messages of [x] readable at view timestamp [t] (ts ≥ t). *)
let readable (mem : t) (x : Loc.t) (t : Time.t) : Message.t list =
  List.filter
    (fun m -> Message.is_concrete m && Time.le t m.Message.ts)
    (messages_at mem x)

(** The message directly following [m] in its location's timeline, if
    any. *)
let successor (mem : t) (m : Message.t) : Message.t option =
  let rec go = function
    | m1 :: (m2 :: _ as rest) ->
      if Time.equal m1.Message.ts m.Message.ts then Some m2
      else go rest
    | [ _ ] | [] -> None
  in
  go (messages_at mem m.Message.loc)

let max_ts (mem : t) (x : Loc.t) : Time.t =
  List.fold_left
    (fun acc m -> Time.max acc m.Message.ts)
    Time.zero (messages_at mem x)

let pp ppf (mem : t) =
  Loc.Map.iter
    (fun _ ms -> Fmt.pf ppf "@[%a@]@ " (Fmt.list ~sep:Fmt.sp Message.pp) ms)
    mem.msgs;
  if not (View.is_bot mem.scv) then Fmt.pf ppf "S=%a" View.pp mem.scv
