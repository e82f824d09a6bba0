(** Packed representation of a finite location domain.

    The SEQ checkers spend almost all of their time enumerating
    environment moves over the non-atomic footprint: permission sets
    and memories built from polymorphic [Loc.Set] / [Loc.Map] values,
    rebuilt from scratch at every configuration.  Over a fixed
    {!Domain.t} the footprint is tiny and static, so all of those
    structures embed into machine integers:

    - a permission/written set becomes a bitmask over the (sorted)
      non-atomic locations, with [Loc.Set] values for every mask
      precomputed in a [2^n] table;
    - a memory becomes an interned id: the per-location value ids are
      packed into an int array and hash-consed, so equality of memories
      is equality of ids;
    - the acquire/release environment-choice lists for each permission
      mask are computed once and cached.

    Fidelity contract: the cached choice lists are {e the very lists}
    returned by {!Domain.acquire_choices} / {!Domain.subsets_of} —
    cached on first use, never re-derived independently — so packed and
    unpacked exploration enumerate identical moves in identical order
    (locked by test/test_diffcore.ml).  Memory interning distinguishes
    an absent binding (value id 0) from a present binding of any value
    (ids >= 1), matching [Loc.Map.compare] on partial memories. *)

exception Unpackable

(* Masks index a [2^n] table, and each memory costs an [n]-element key:
   beyond this many non-atomic locations the tables stop paying for
   themselves and callers should fall back to the set-based path. *)
let max_locs = 16

type t = {
  domain : Domain.t;
  nlocs : int;
  locs : Loc.t array;  (* index -> location, sorted ascending *)
  full_mask : int;
  sets : Loc.Set.t array;  (* mask -> set, all 2^nlocs *)
  mutable values : Value.t array;  (* (id - 1) -> value; id 0 means "absent" *)
  value_ids : (Value.t, int) Hashtbl.t;
  mutable value_count : int;
  mem_key : int array;  (* scratch key of [pack_mem], copied only on a miss *)
  mem_ids : (int array, int) Hashtbl.t;
  mutable mem_rev : Value.t Loc.Map.t array;  (* mem id -> memory *)
  mutable mem_count : int;
  acq_cache : (Loc.Set.t * Value.t Loc.Map.t) list option array;
  rel_cache : Loc.Set.t list option array;
}

let domain t = t.domain
let nlocs t = t.nlocs
let full_mask t = t.full_mask
let mem_count t = t.mem_count

let make (d : Domain.t) : t =
  let locs = Array.of_list d.Domain.na_locs in
  let n = Array.length locs in
  if n > max_locs then raise Unpackable;
  let size = 1 lsl n in
  let sets = Array.make size Loc.Set.empty in
  for m = 1 to size - 1 do
    (* m = m' | lowest-set-bit, and m' < m is already filled *)
    let bit = m land -m in
    let i =
      let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
      log2 bit 0
    in
    sets.(m) <- Loc.Set.add locs.(i) sets.(m lxor bit)
  done;
  let vlist = Domain.values_with_undef d in
  let values = Array.make (max 8 (2 * List.length vlist)) Value.Undef in
  List.iteri (fun i v -> values.(i) <- v) vlist;
  let value_ids = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace value_ids v (i + 1)) vlist;
  {
    domain = d;
    nlocs = n;
    locs;
    full_mask = size - 1;
    sets;
    values;
    value_ids;
    value_count = List.length vlist;
    mem_key = Array.make n 0;
    mem_ids = Hashtbl.create 256;
    mem_rev = Array.make 16 Loc.Map.empty;
    mem_count = 0;
    acq_cache = Array.make size None;
    rel_cache = Array.make size None;
  }

let set_of_mask t m = t.sets.(m)

(* [mask_of_set] and [pack_mem] run once per interned configuration, hit
   or miss, so they walk the sorted location array instead of folding a
   closure over the set or map; a set or memory with a location outside
   the footprint shows up as a cardinality mismatch. *)
let mask_of_set t (s : Loc.Set.t) : int =
  let m = ref 0 and found = ref 0 in
  for i = 0 to t.nlocs - 1 do
    if Loc.Set.mem t.locs.(i) s then begin
      m := !m lor (1 lsl i);
      incr found
    end
  done;
  if !found <> Loc.Set.cardinal s then raise Unpackable;
  !m

(* Memories can hold values the program computed outside the domain
   (e.g. the sum of two domain values written non-atomically), so unseen
   values are interned on the fly — ids are only used for memory
   hashing/equality, never for enumeration, which draws exclusively from
   the domain's own value list. *)
let value_id t v =
  match Hashtbl.find t.value_ids v with
  | i -> i
  | exception Not_found ->
    if t.value_count >= Array.length t.values then begin
      let grown = Array.make (2 * Array.length t.values) Value.Undef in
      Array.blit t.values 0 grown 0 t.value_count;
      t.values <- grown
    end;
    t.values.(t.value_count) <- v;
    t.value_count <- t.value_count + 1;
    Hashtbl.replace t.value_ids v t.value_count;
    t.value_count

let value_of_id t i = t.values.(i - 1)

(* Fills [t.mem_key]; the table only ever stores copies of it. *)
let pack_mem t (mem : Value.t Loc.Map.t) : int =
  let key = t.mem_key and found = ref 0 in
  for i = 0 to t.nlocs - 1 do
    match Loc.Map.find t.locs.(i) mem with
    | v ->
      key.(i) <- value_id t v;
      incr found
    | exception Not_found -> key.(i) <- 0
  done;
  if !found <> Loc.Map.cardinal mem then raise Unpackable;
  match Hashtbl.find t.mem_ids key with
  | id -> id
  | exception Not_found ->
    let id = t.mem_count in
    if id >= Array.length t.mem_rev then begin
      let grown = Array.make (2 * Array.length t.mem_rev) Loc.Map.empty in
      Array.blit t.mem_rev 0 grown 0 id;
      t.mem_rev <- grown
    end;
    t.mem_rev.(id) <- mem;
    t.mem_count <- id + 1;
    Hashtbl.replace t.mem_ids (Array.copy key) id;
    id

let mem_of_id t id = t.mem_rev.(id)

let acquire_choices t (pmask : int) =
  match t.acq_cache.(pmask) with
  | Some l -> l
  | None ->
    let l = Domain.acquire_choices t.domain t.sets.(pmask) in
    t.acq_cache.(pmask) <- Some l;
    l

let release_choices t (pmask : int) =
  match t.rel_cache.(pmask) with
  | Some l -> l
  | None ->
    let l = Domain.subsets_of t.domain t.sets.(pmask) in
    t.rel_cache.(pmask) <- Some l;
    l

(* All submasks of [m], including 0 and [m] itself (test helper). *)
let submasks (m : int) : int list =
  let rec go s acc =
    let acc = s :: acc in
    if s = 0 then acc else go ((s - 1) land m) acc
  in
  go m []
