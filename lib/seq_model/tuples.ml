(* Open-addressing interner of fixed-arity int tuples: the caller fills
   [key], and a hit allocates nothing.  Ids are dense, in first-seen
   order; [keys] holds tuple [id] at [id * arity]. *)

type t = {
  arity : int;
  key : int array;
  mutable keys : int array;
  mutable slots : int array;  (* -1 empty, else an id *)
  mutable count : int;
}

let create arity =
  {
    arity;
    key = Array.make arity 0;
    keys = Array.make (16 * arity) 0;
    slots = Array.make 32 (-1);
    count = 0;
  }

let hash_at (a : int array) off n =
  let h = ref 0 in
  for j = off to off + n - 1 do
    h := (!h lxor a.(j)) * 0x1000193;
    h := !h lxor (!h lsr 29)
  done;
  !h land max_int

let rec equal_from t off j =
  j = t.arity
  || (t.keys.(off + j) = t.key.(j) && equal_from t off (j + 1))

let rec probe t mask i =
  let id = t.slots.(i) in
  if id < 0 || equal_from t (id * t.arity) 0 then i
  else probe t mask ((i + 1) land mask)

let rec place slots mask id i =
  if slots.(i) < 0 then slots.(i) <- id
  else place slots mask id ((i + 1) land mask)

let resize t =
  let n = 2 * Array.length t.slots in
  let slots = Array.make n (-1) in
  for id = 0 to t.count - 1 do
    place slots (n - 1) id (hash_at t.keys (id * t.arity) t.arity land (n - 1))
  done;
  t.slots <- slots

(** Id of the tuple in [t.key], or [-1 - slot] when it is absent. *)
let find t =
  let mask = Array.length t.slots - 1 in
  let i = probe t mask (hash_at t.key 0 t.arity land mask) in
  let id = t.slots.(i) in
  if id >= 0 then id else -1 - i

(** Add the tuple in [t.key] at the slot a missing {!find} reported. *)
let add t miss =
  let id = t.count in
  if (id + 1) * t.arity > Array.length t.keys then begin
    let keys = Array.make (2 * Array.length t.keys) 0 in
    Array.blit t.keys 0 keys 0 (id * t.arity);
    t.keys <- keys
  end;
  Array.blit t.key 0 t.keys (id * t.arity) t.arity;
  t.count <- id + 1;
  t.slots.(-1 - miss) <- id;
  if 2 * t.count > Array.length t.slots then resize t;
  id

let intern t =
  let id = find t in
  if id >= 0 then id else add t id

let get t id j = t.keys.((id * t.arity) + j)
