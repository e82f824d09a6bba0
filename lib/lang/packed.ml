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
    - the acquire/release environment choices of each permission mask
      are tabulated once: post masks, gained values as a key overlay,
      release masks;
    - the memory effects of transitions (a non-atomic write, an
      acquire's gains, a release's [M|P]) are computed on keys.

    Fidelity contract: the tables replay {e the very lists} returned by
    {!Domain.acquire_choices} / {!Domain.subsets_of} — built on first
    use, never re-derived independently — so packed and unpacked
    exploration enumerate identical moves in identical order (locked by
    test/test_diffcore.ml).  Memory interning distinguishes
    an absent binding (value id 0) from a present binding of any value
    (ids >= 1), matching [Loc.Map.compare] on partial memories. *)

exception Unpackable

(* Masks index a [2^n] table, and each memory costs an [n]-element key:
   beyond this many non-atomic locations the tables stop paying for
   themselves, and a check over the domain is undecided. *)
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
  mem_key : int array;  (* scratch key of memory lookups, copied on a miss *)
  mem_ids : (int array, int) Hashtbl.t;
  mutable mem_rev : Value.t Loc.Map.t array;  (* mem id -> memory *)
  mutable mem_keys : int array array;  (* mem id -> its key *)
  mutable mem_count : int;
  zero_id : int;  (* value id of [Value.zero], what an absent binding reads *)
  acq_tables : acq_table option array;
  rel_tables : int array option array;
}

(* The acquire choices of one permission mask, in [Domain.acquire_choices]
   order: the post mask of choice [k] and its gains as a key overlay
   (value id per location, 0 where nothing is gained). *)
and acq_table = {
  choices : (Loc.Set.t * Value.t Loc.Map.t) array;
  posts : int array;
  gains : int array array;
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
  (* [Value.zero], what an absent binding reads, gets an id up front *)
  let vlist = Domain.values_with_undef d in
  let vlist =
    if List.exists (Value.equal Value.zero) vlist then vlist
    else vlist @ [ Value.zero ]
  in
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
    mem_keys = Array.make 16 [||];
    mem_count = 0;
    zero_id = Hashtbl.find value_ids Value.zero;
    acq_tables = Array.make size None;
    rel_tables = Array.make size None;
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

(* Adds the key in [t.mem_key], which encodes [mem], as a new memory; the
   table only ever stores copies of the scratch key. *)
let add_key t (mem : Value.t Loc.Map.t) : int =
  let id = t.mem_count in
  if id >= Array.length t.mem_rev then begin
    let grown = Array.make (2 * Array.length t.mem_rev) Loc.Map.empty in
    Array.blit t.mem_rev 0 grown 0 id;
    t.mem_rev <- grown;
    let grown = Array.make (2 * Array.length t.mem_keys) [||] in
    Array.blit t.mem_keys 0 grown 0 id;
    t.mem_keys <- grown
  end;
  let key = Array.copy t.mem_key in
  t.mem_rev.(id) <- mem;
  t.mem_keys.(id) <- key;
  t.mem_count <- id + 1;
  Hashtbl.replace t.mem_ids key id;
  id

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
  | exception Not_found -> add_key t mem

(* Interns the key in [t.mem_key] built by the memory arithmetic below;
   a hit allocates nothing, a miss also builds the memory it encodes. *)
let intern_key t : int =
  match Hashtbl.find t.mem_ids t.mem_key with
  | id -> id
  | exception Not_found ->
    let m = ref Loc.Map.empty in
    for i = t.nlocs - 1 downto 0 do
      let v = t.mem_key.(i) in
      if v <> 0 then m := Loc.Map.add t.locs.(i) t.values.(v - 1) !m
    done;
    add_key t !m

let mem_read_vid t id i =
  let v = t.mem_keys.(id).(i) in
  if v = 0 then t.zero_id else v

let mem_read t id i = t.values.(mem_read_vid t id i - 1)

let mem_set t id i vid =
  Array.blit t.mem_keys.(id) 0 t.mem_key 0 t.nlocs;
  t.mem_key.(i) <- vid;
  intern_key t

let mem_of_id t id = t.mem_rev.(id)

let acq_table t pmask =
  match t.acq_tables.(pmask) with
  | Some a -> a
  | None ->
    let choices =
      Array.of_list (Domain.acquire_choices t.domain t.sets.(pmask))
    in
    let posts = Array.map (fun (post, _) -> mask_of_set t post) choices in
    let gains =
      Array.map
        (fun (_, vnew) ->
          Array.init t.nlocs (fun i ->
              match Loc.Map.find_opt t.locs.(i) vnew with
              | Some v -> value_id t v
              | None -> 0))
        choices
    in
    let a = { choices; posts; gains } in
    t.acq_tables.(pmask) <- Some a;
    a

let acquire_count t pmask = Array.length (acq_table t pmask).posts
let acquire_post t pmask k = (acq_table t pmask).posts.(k)
let acquire_choice t pmask k = (acq_table t pmask).choices.(k)

let mem_acquire t id pmask k =
  let gain = (acq_table t pmask).gains.(k) in
  let key = t.mem_key and src = t.mem_keys.(id) in
  for i = 0 to t.nlocs - 1 do
    let g = gain.(i) in
    key.(i) <- (if g <> 0 then g else src.(i))
  done;
  intern_key t

let release_posts t pmask =
  match t.rel_tables.(pmask) with
  | Some a -> a
  | None ->
    let a =
      Array.of_list
        (List.map (mask_of_set t) (Domain.subsets_of t.domain t.sets.(pmask)))
    in
    t.rel_tables.(pmask) <- Some a;
    a

let mem_released t id pmask =
  let key = t.mem_key in
  for i = 0 to t.nlocs - 1 do
    key.(i) <- (if pmask land (1 lsl i) <> 0 then mem_read_vid t id i else 0)
  done;
  intern_key t

(* All submasks of [m], including 0 and [m] itself (test helper). *)
let submasks (m : int) : int list =
  let rec go s acc =
    let acc = s :: acc in
    if s = 0 then acc else go ((s - 1) land m) acc
  in
  go m []
