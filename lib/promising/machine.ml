(** PS_na machine states, certification, exhaustive bounded exploration,
    and behavioral refinement (Def 5.2/5.3).

    Machine steps follow Fig 5: a thread takes a step (here: one step at a
    time, with promise/lower steps enumerated separately and bounded) and
    must then {e certify} — running alone, it must be able to fulfill all
    its outstanding promises (reaching ⊥ also empties the promise set, per
    the (fail)/(racy-write) rules).

    Explored states are deduplicated up to order-isomorphism of the
    per-location timestamp orders (timestamp values never matter beyond
    their relative order and attachment structure), which keeps litmus
    explorations finite.  Within one exploration each thread
    configuration is expanded and certified once (the expansion cache,
    see {!explore}). *)

open Lang

type state = { threads : Thread.t list; memory : Memory.t }

(** A PS_na behavior: per-thread return value and output (system-call)
    sequence, or ⊥ for a UB run (Def 5.2 + footnote 10). *)
type behavior =
  | Ret of (Value.t * Value.t list) list
  | Bot

let compare_behavior b1 b2 =
  match b1, b2 with
  | Bot, Bot -> 0
  | Bot, Ret _ -> -1
  | Ret _, Bot -> 1
  | Ret l1, Ret l2 ->
    List.compare
      (fun (v1, o1) (v2, o2) ->
        let c = Value.compare v1 v2 in
        if c <> 0 then c else List.compare Value.compare o1 o2)
      l1 l2

module Behavior_set = Set.Make (struct
  type t = behavior
  let compare = compare_behavior
end)

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                     *)
(* ------------------------------------------------------------------ *)

(* A canonical key is a sequence of ints: two states get equal keys iff
   they are equal up to order-isomorphism of the per-location timestamp
   orders.  Timestamps become their rank in their location's message list
   (0 = the init message); locations and program states become small ids
   from interners.  Every variable-length part is count-prefixed, so the
   encoding parses back uniquely:

     key     = params-id, #locs, (loc-id, #msgs, (attached, payload)* )*,
               sc-view, thread*
     thread  = prog-id, cur, acq, rel,
               #promises, (loc-id, rank, attached, payload)*,
               #outs, value*, promised
     view    = #entries, (loc-id, rank)*      (non-zero entries only)
     payload = 0 (reserved) | 1, value, view
     value   = 0 (undef) | 1, n

   The params id (see {!params_fingerprint}) leads every key, so one
   certification table serves explorations under differing params.

   Keys are built into one reusable buffer, and a lookup probes the
   tables with the buffer itself.  A key that outlives its search is
   copied out into an [int array] of its own ({!Key.stored}); the keys
   a certification search visits are copied into the memo's reusable
   arena instead ({!arena_key}). *)
module Key = struct
  type t = { ints : int array; off : int; len : int }
      (** the [len] ints from [off] on *)

  let rec equal_from a b i =
    i = a.len
    || (a.ints.(a.off + i) = b.ints.(b.off + i) && equal_from a b (i + 1))

  let equal a b = a.len = b.len && equal_from a b 0

  (* polynomial over the whole key ([Hashtbl.hash] would stop after ten
     ints), then [Hashtbl.hash]'s integer mixing *)
  let hash a =
    let h = ref 0 in
    for i = a.off to a.off + a.len - 1 do
      h := (!h * 65599) + a.ints.(i)
    done;
    Hashtbl.hash !h

  let stored a = { a with ints = Array.sub a.ints a.off a.len; off = 0 }
end

module Key_tbl = Hashtbl.Make (Key)

module Prog_tbl = Hashtbl.Make (struct
  type t = Prog.state
  let equal = Prog.equal_state
  let hash = Prog.hash_state
end)

(* Interners, the reusable key buffer, and per-key scratch: the keyed
   memory's locations by position, for rank lookups.  The helpers below
   are closure-free, so building a key allocates only the returned probe,
   new interner entries and {!Prog.equal_state}'s closure on a program
   hit.  Ids are first-seen, so keys do not depend on the interner's
   table layout. *)
type keyer = {
  loc_ids : (Loc.t, int) Hashtbl.t;
  prog_ids : int Prog_tbl.t;
  mutable buf : int array;
  mutable len : int;
  mutable locs : Loc.t array;
  mutable loc_keys : int array;  (** interned ids of [locs] *)
  mutable loc_msgs : Message.t list array;
  mutable nlocs : int;
}

let make_keyer () =
  {
    loc_ids = Hashtbl.create 8;
    prog_ids = Prog_tbl.create 64;
    buf = Array.make 256 0;
    len = 0;
    locs = [||];
    loc_keys = [||];
    loc_msgs = [||];
    nlocs = 0;
  }

let push k x =
  if k.len = Array.length k.buf then begin
    let buf = Array.make (2 * k.len) 0 in
    Array.blit k.buf 0 buf 0 k.len;
    k.buf <- buf
  end;
  k.buf.(k.len) <- x;
  k.len <- k.len + 1

let loc_id k x =
  match Hashtbl.find k.loc_ids x with
  | id -> id
  | exception Not_found ->
    let id = Hashtbl.length k.loc_ids in
    Hashtbl.add k.loc_ids x id;
    id

let prog_id k p =
  match Prog_tbl.find k.prog_ids p with
  | id -> id
  | exception Not_found ->
    let id = Prog_tbl.length k.prog_ids in
    Prog_tbl.add k.prog_ids p id;
    id

let register x ms k =
  if k.nlocs = Array.length k.locs then begin
    let grow a fill = Array.append a (Array.make (k.nlocs + 4) fill) in
    k.locs <- grow k.locs "";
    k.loc_keys <- grow k.loc_keys 0;
    k.loc_msgs <- grow k.loc_msgs []
  end;
  k.locs.(k.nlocs) <- x;
  k.loc_keys.(k.nlocs) <- loc_id k x;
  k.loc_msgs.(k.nlocs) <- ms;
  k.nlocs <- k.nlocs + 1;
  k

let rec rank ts r = function
  | [] -> -2
  | m :: ms -> if Time.equal m.Message.ts ts then r else rank ts (r + 1) ms

(* Push [x]'s id and the rank of [ts] among its messages: -1 for a
   location outside memory and -2 for a timestamp no message carries
   (views always point at message timestamps, so neither arises in
   practice). *)
let rec push_loc_rank k x ts i =
  if i = k.nlocs then begin
    push k (loc_id k x);
    push k (-1)
  end
  else if Loc.equal x k.locs.(i) then begin
    push k k.loc_keys.(i);
    push k (rank ts 0 k.loc_msgs.(i))
  end
  else push_loc_rank k x ts (i + 1)

let push_entry x t k =
  if not (Time.equal t Time.zero) then push_loc_rank k x t 0;
  k

let push_view k (v : View.t) =
  let count = k.len in
  push k 0;
  ignore (Loc.Map.fold push_entry v k);
  k.buf.(count) <- (k.len - count - 1) / 2

let push_value k = function
  | Value.Undef -> push k 0
  | Value.Int n ->
    push k 1;
    push k n

let push_payload k = function
  | Message.Reserved -> push k 0
  | Message.Concrete { value; view } ->
    push k 1;
    push_value k value;
    push_view k view

let rec push_msgs k = function
  | [] -> ()
  | m :: ms ->
    push k (Bool.to_int m.Message.attached);
    push_payload k m.Message.payload;
    push_msgs k ms

let rec push_promises k = function
  | [] -> ()
  | m :: ms ->
    push_loc_rank k m.Message.loc m.Message.ts 0;
    push k (Bool.to_int m.Message.attached);
    push_payload k m.Message.payload;
    push_promises k ms

let rec push_values k = function
  | [] -> ()
  | v :: vs ->
    push_value k v;
    push_values k vs

let rec push_threads k = function
  | [] -> ()
  | (th : Thread.t) :: ths ->
    push k (prog_id k th.Thread.prog);
    push_view k th.Thread.views.Tview.cur;
    push_view k th.Thread.views.Tview.acq;
    push_view k th.Thread.views.Tview.rel;
    push k (List.length th.Thread.promises);
    push_promises k th.Thread.promises;
    push k (List.length th.Thread.outs);
    push_values k th.Thread.outs;
    push k th.Thread.promised;
    push_threads k ths

(* The key of [s], in the keyer's buffer: valid until the next call. *)
let key k ~params_id (s : state) : Key.t =
  k.len <- 0;
  k.nlocs <- 0;
  (* register every location first: message views rank timestamps of
     locations the iteration has not reached yet *)
  ignore (Loc.Map.fold register s.memory.Memory.msgs k);
  push k params_id;
  push k k.nlocs;
  for i = 0 to k.nlocs - 1 do
    push k k.loc_keys.(i);
    push k (List.length k.loc_msgs.(i));
    push_msgs k k.loc_msgs.(i)
  done;
  push_view k s.memory.Memory.scv;
  push_threads k s.threads;
  { Key.ints = k.buf; off = 0; len = k.len }

(* ------------------------------------------------------------------ *)
(* Shareable memoization context                                        *)
(* ------------------------------------------------------------------ *)

(** A certification-memo context that can be threaded through several
    {!explore} calls (e.g. every context of one adequacy row, or all
    tasks a sweep worker domain executes).  Never share one across
    domains: the tables are plain [Hashtbl]s.  The interners live here
    rather than per exploration so that keys of explorations sharing the
    memo stay comparable.  Sharing is sound across differing params (keys
    lead with the params id) and only ever changes {e timing} and hit
    counts, never verdicts or state counts.  It also owns one
    certification search's scratch: the visited table and the int arena
    its keys live in, both emptied when the next search starts. *)
type memo = {
  cert_tbl : bool Key_tbl.t;
  keyer : keyer;
  params_ids : (string, int) Hashtbl.t;
  mutable hits : int;  (** cumulative hits across all uses *)
  cert_visited : unit Key_tbl.t;
  mutable arena : int array;
  mutable arena_len : int;  (** ints of [arena] in use *)
}

let make_memo () =
  {
    cert_tbl = Key_tbl.create 1024;
    keyer = make_keyer ();
    params_ids = Hashtbl.create 4;
    hits = 0;
    cert_visited = Key_tbl.create 64;
    arena = Array.make 4096 0;
    arena_len = 0;
  }

let memo_hits (m : memo) = m.hits
let memo_entries (m : memo) = Key_tbl.length m.cert_tbl

(* A copy of [k] in the arena, valid until the next search resets it.
   A full arena is replaced, not grown: keys already handed out keep
   the old array alive for as long as the visited table holds them. *)
let arena_key (m : memo) (k : Key.t) : Key.t =
  if m.arena_len + k.Key.len > Array.length m.arena then begin
    m.arena <- Array.make (max k.Key.len (2 * Array.length m.arena)) 0;
    m.arena_len <- 0
  end;
  let off = m.arena_len in
  Array.blit k.Key.ints k.Key.off m.arena off k.Key.len;
  m.arena_len <- off + k.Key.len;
  { Key.ints = m.arena; off; len = k.Key.len }

(* ------------------------------------------------------------------ *)
(* Certification                                                        *)
(* ------------------------------------------------------------------ *)

(* Certification verdicts depend on the exploration parameters as well
   as the canonical state; a memo table shared across explorations with
   differing params must keep their entries apart. *)
let params_fingerprint (p : Thread.params) : string =
  Printf.sprintf "%s;%d;%b;%d;%d;%b|"
    (String.concat "," (List.map Value.to_string p.Thread.values))
    p.Thread.batch_bound p.Thread.batch_concrete p.Thread.promise_budget
    p.Thread.cert_fuel p.Thread.track_fence_views

let params_id (m : memo) (p : Thread.params) : int =
  let fp = params_fingerprint p in
  match Hashtbl.find_opt m.params_ids fp with
  | Some id -> id
  | None ->
    let id = Hashtbl.length m.params_ids in
    Hashtbl.add m.params_ids fp id;
    id

(* Thread-alone search for a promise-free point (new promises excluded;
   failure steps empty the promise set and therefore certify).  The memo
   caches verdicts keyed by the canonical single-thread state (sound:
   certification only depends on it and the params, whose id leads the
   key).  The top-level key doubles as the search's first visited key;
   the other visited keys live in the memo's arena, so a search node
   costs no key array of its own. *)
let certify ~budget (m : memo) ~params_id (p : Thread.params)
    (mem : Memory.t) (th : Thread.t) : bool =
  let key_of mem th =
    key m.keyer ~params_id { threads = [ th ]; memory = mem }
  in
  let top_key = key_of mem th in
  match Key_tbl.find_opt m.cert_tbl top_key with
  | Some b ->
    m.hits <- m.hits + 1;
    b
  | None ->
    let top_key = Key.stored top_key in
    let visited = m.cert_visited in
    Key_tbl.reset visited;
    m.arena_len <- 0;
    let rec go fuel mem th k =
      Engine.Budget.check budget;
      if th.Thread.promises = [] then true
      else if fuel = 0 then false
      else
        let k = match k with Some k -> k | None -> key_of mem th in
        if Key_tbl.mem visited k then false
        else begin
          Key_tbl.add visited (if k == top_key then k else arena_key m k) ();
          let outcomes = Thread.steps p mem th @ Thread.lower_steps mem th in
          List.exists
            (function
              | Thread.Failure -> Thread.may_fail th
              | Thread.Step (th', mem', _) -> go (fuel - 1) mem' th' None)
            outcomes
        end
    in
    let result = go p.Thread.cert_fuel mem th (Some top_key) in
    Key_tbl.replace m.cert_tbl top_key result;
    result

(* ------------------------------------------------------------------ *)
(* Exploration                                                          *)
(* ------------------------------------------------------------------ *)

type result = {
  behaviors : Behavior_set.t;
  truncated : bool;  (** state budget exhausted: the set may be partial *)
  states : int;  (** distinct canonical states explored *)
  races : bool;  (** some explored state had an enabled racy access *)
  weak_races : bool;
      (** some state had a conflicting unseen message at an access of mode
          rlx or weaker — the premise of the DRF-PF guarantee counts races
          involving any non-acquire/release access *)
  memo_hits : int;
      (** certification-memo hits of the certifications this exploration
          ran (replayed expansions run none) — deterministic iff the memo
          was not pre-warmed by other explorations *)
}

let terminal_behavior (s : state) : behavior option =
  let rec go acc = function
    | [] -> Some (Ret (List.rev acc))
    | (th : Thread.t) :: rest ->
      (match Prog.step th.Thread.prog with
       | Prog.Terminated v when th.Thread.promises = [] ->
         go ((v, List.rev th.Thread.outs) :: acc) rest
       | _ -> None)
  in
  go [] s.threads

let state_has_race (s : state) : bool =
  List.exists
    (fun (th : Thread.t) ->
      match Prog.step th.Thread.prog with
      | Prog.Do_read (o, x, _) ->
        Thread.is_racy s.memory th x ~atomic:(Mode.read_is_atomic o)
      | Prog.Do_write (o, x, _, _) ->
        Thread.is_racy s.memory th x ~atomic:(Mode.write_is_atomic o)
      | Prog.Do_update (x, _) -> Thread.is_racy s.memory th x ~atomic:true
      | _ -> false)
    s.threads

(* An unseen message of another thread at an access of mode rlx or weaker
   (reads: na/rlx; writes: na/rlx). *)
let state_has_weak_race (s : state) : bool =
  let unseen (th : Thread.t) x =
    List.exists
      (fun m ->
        (not (Thread.has_promise th m))
        && Time.lt (View.find x (Thread.cur th)) m.Message.ts)
      (Memory.messages_at s.memory x)
  in
  List.exists
    (fun (th : Thread.t) ->
      match Prog.step th.Thread.prog with
      | Prog.Do_read ((Mode.Rna | Mode.Rrlx), x, _) -> unseen th x
      | Prog.Do_write ((Mode.Wna | Mode.Wrlx), x, _, _) -> unseen th x
      | _ -> false)
    s.threads

(* The expansion cache of one exploration: per (thread index, memory,
   thread) expanded, its certified outcomes in step order, [Failure]
   kept.  Hits are decided by exact equality, not by the canonical key:
   two memories equal up to timestamp order-isomorphism carry different
   timestamps, and the other threads' views name them, so their
   successors differ.  The canonical single-thread key only serves as
   the hash ([hash]), mixed with the thread index. *)
type expansion = { tid : int; mem : Memory.t; th : Thread.t; hash : int }

module Expansion_tbl = Hashtbl.Make (struct
  type t = expansion

  let equal a b =
    a.hash = b.hash && a.tid = b.tid && Memory.equal a.mem b.mem
    && Thread.equal a.th b.th

  let hash e = e.hash
end)

(** Exhaustive bounded exploration of all PS_na behaviors of a concurrent
    program.  [until_bot] stops as soon as a ⊥ behavior is recorded — sound
    when the caller only needs the behaviors of a refinement {e source}
    (⊥ subsumes everything). *)
let rec stmt_has_fence = function
  | Stmt.Fence _ -> true
  | Stmt.Seq (a, b) | Stmt.If (_, a, b) -> stmt_has_fence a || stmt_has_fence b
  | Stmt.While (_, a) -> stmt_has_fence a
  | Stmt.Skip | Stmt.Assign _ | Stmt.Load _ | Stmt.Store _ | Stmt.Cas _
  | Stmt.Fadd _ | Stmt.Choose _ | Stmt.Freeze _ | Stmt.Print _ | Stmt.Abort
  | Stmt.Return _ -> false

let explore ?(params = Thread.default_params) ?(until_bot = false) ?memo
    ?(budget = Engine.Budget.unlimited) (progs : Stmt.t list) : result =
  let params =
    if List.exists stmt_has_fence progs then params
    else { params with Thread.track_fence_views = false }
  in
  let memo = match memo with Some m -> m | None -> make_memo () in
  let params_id = params_id memo params in
  let hits_before = memo.hits in
  let locs =
    let fps = List.map Stmt.footprint progs in
    let all =
      List.fold_left
        (fun acc (fp : Stmt.footprint) ->
          Loc.Set.union acc (Loc.Set.union fp.Stmt.na fp.Stmt.at))
        Loc.Set.empty fps
    in
    Loc.Set.elements all
  in
  let init_state =
    {
      threads = List.map (fun s -> Thread.init (Prog.init s)) progs;
      memory = Memory.init locs;
    }
  in
  (* promises only make sense at locations the promising thread writes *)
  let writable =
    List.map
      (fun s -> Loc.Set.elements (Thread.writable_locs Loc.Set.empty s))
      progs
  in
  let visited = Key_tbl.create 4096 in
  let expanded = Expansion_tbl.create 1024 in
  let behaviors = ref Behavior_set.empty in
  let races = ref false in
  let weak_races = ref false in
  let truncated = ref false in
  let queue = Queue.create () in
  let push s =
    let k = key memo.keyer ~params_id s in
    if not (Key_tbl.mem visited k) then
      if Key_tbl.length visited >= params.Thread.max_states then
        truncated := true
      else begin
        Engine.Budget.spend_state budget;
        Key_tbl.add visited (Key.stored k) ();
        Queue.push s queue
      end
  in
  push init_state;
  let stop = ref false in
  while (not !stop) && not (Queue.is_empty queue) do
    Engine.Budget.check budget;
    let s = Queue.pop queue in
    if state_has_race s then races := true;
    if state_has_weak_race s then weak_races := true;
    (match terminal_behavior s with
     | Some b -> behaviors := Behavior_set.add b !behaviors
     | None -> ());
    List.iteri
      (fun tid (th : Thread.t) ->
        let take = function
          | Thread.Failure ->
            behaviors := Behavior_set.add Bot !behaviors;
            if until_bot then stop := true
          | Thread.Step (th', mem', _) ->
            push
              {
                threads =
                  List.mapi (fun i t -> if i = tid then th' else t) s.threads;
                memory = mem';
              }
        in
        let k =
          key memo.keyer ~params_id { threads = [ th ]; memory = s.memory }
        in
        let hash = Hashtbl.hash ((Key.hash k * 31) + tid) in
        let e = { tid; mem = s.memory; th; hash } in
        match Expansion_tbl.find expanded e with
        | certified -> List.iter take certified
        | exception Not_found ->
          (* certify and take each outcome in step order, as a replay
             will ([List.filter] visits left to right) *)
          let certified =
            List.filter
              (fun o ->
                let ok =
                  match o with
                  | Thread.Failure -> true
                  | Thread.Step (th', mem', _) ->
                    certify ~budget memo ~params_id params mem' th'
                in
                if ok then take o;
                ok)
              (Thread.steps params s.memory th
              @ Thread.promise_steps params (List.nth writable tid) s.memory th
              @ Thread.lower_steps s.memory th)
          in
          Expansion_tbl.add expanded e certified)
      s.threads
  done;
  {
    behaviors = !behaviors;
    truncated = !truncated;
    states = Key_tbl.length visited;
    races = !races;
    weak_races = !weak_races;
    memo_hits = memo.hits - hits_before;
  }

(* ------------------------------------------------------------------ *)
(* Behavioral refinement (Def 5.2 / 5.3)                                *)
(* ------------------------------------------------------------------ *)

let behavior_le (bt : behavior) (bs : behavior) : bool =
  match bt, bs with
  | _, Bot -> true
  | Bot, Ret _ -> false
  | Ret lt, Ret ls ->
    List.length lt = List.length ls
    && List.for_all2
         (fun (vt, ot) (vs, os) ->
           Value.le vt vs
           && List.length ot = List.length os
           && List.for_all2 Value.le ot os)
         lt ls

(** [refines ~src ~tgt]: every target behavior is ⊑-matched by a source
    behavior (a source ⊥ matches everything). *)
let refines ~(src : Behavior_set.t) ~(tgt : Behavior_set.t) : bool =
  Behavior_set.mem Bot src
  || Behavior_set.for_all
       (fun bt -> Behavior_set.exists (fun bs -> behavior_le bt bs) src)
       tgt

let pp_behavior ppf = function
  | Bot -> Fmt.string ppf "⊥"
  | Ret l ->
    let pp_one ppf (v, outs) =
      match outs with
      | [] -> Value.pp ppf v
      | _ -> Fmt.pf ppf "%a(out:%a)" Value.pp v Fmt.(list ~sep:comma Value.pp) outs
    in
    Fmt.pf ppf "⟨%a⟩" Fmt.(list ~sep:(any " ∥ ") pp_one) l

let pp_behaviors ppf set =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any "; ") pp_behavior)
    (Behavior_set.elements set)
