(* Phase 1 registers a pair before analyzing it (cutting cycles) and
   then explores its dependencies in order, charging the budget one state
   per new pair — the DFS of the set-based reference solver.  Phase 2
   computes the same greatest fixpoint by reverse-dependency
   propagation: a pair dies iff its local obligations fail or it
   depends, transitively, on a dead pair — O(pairs + deps) instead of
   repeated full passes.

   The answers of the pairs on the DFS path live on one stack: [analyze]
   pushes a pair's answers above those of its ancestors, and they are
   popped once its dependencies are explored.  Pairs are interned by
   {!Tuples}, so neither allocates per pair. *)

(* Answer [j] is [Dep (c.(j), t.(j), s.(j))], or a constant: c = -1 for
   false, -2 for true. *)
type sink = {
  mutable c : int array;
  mutable t : int array;
  mutable s : int array;
  mutable top : int;
}

let push sink c t s =
  let j = sink.top in
  if j = Array.length sink.c then begin
    let grow a =
      let g = Array.make (2 * j) 0 in
      Array.blit a 0 g 0 j;
      g
    in
    sink.c <- grow sink.c;
    sink.t <- grow sink.t;
    sink.s <- grow sink.s
  end;
  sink.c.(j) <- c;
  sink.t.(j) <- t;
  sink.s.(j) <- s;
  sink.top <- j + 1

let const sink b = push sink (if b then -2 else -1) 0 0
let dep sink c t s = push sink c t s

let sink () =
  { c = Array.make 64 0; t = Array.make 64 0; s = Array.make 64 0; top = 0 }

type answer = Const of bool | Dep of int * int * int

let answers sink =
  List.init sink.top (fun j ->
      match sink.c.(j) with
      | -1 -> Const false
      | -2 -> Const true
      | c -> Dep (c, sink.t.(j), sink.s.(j)))

let solve ?(budget = Engine.Budget.unlimited)
    ~(analyze : sink -> int -> int -> int -> bool)
    (roots : (int * int * int) list) :
    bool * int * (int -> int -> int -> bool) =
  let pairs = Tuples.create 3 in
  let sink = sink () in
  let local_ok = ref (Bytes.make 64 '\001') in
  let deps = ref (Array.make 64 [||]) in
  let ensure n =
    if n > Bytes.length !local_ok then begin
      let lo = Bytes.make (2 * Bytes.length !local_ok) '\001' in
      Bytes.blit !local_ok 0 lo 0 (Bytes.length !local_ok);
      local_ok := lo;
      let dp = Array.make (2 * Array.length !deps) [||] in
      Array.blit !deps 0 dp 0 (Array.length !deps);
      deps := dp
    end
  in
  let find c t s =
    let key = pairs.Tuples.key in
    key.(0) <- c;
    key.(1) <- t;
    key.(2) <- s;
    Tuples.find pairs
  in
  let rec explore c t s =
    let pid = find c t s in
    if pid >= 0 then pid
    else begin
      Engine.Budget.spend_state budget;
      let pid = Tuples.add pairs pid in
      ensure (pid + 1);
      let base = sink.top in
      let ok = analyze sink c t s in
      let top = sink.top in
      let ndeps = ref 0 in
      for j = base to top - 1 do
        if sink.c.(j) >= 0 then incr ndeps
        else if sink.c.(j) = -1 then Bytes.set !local_ok pid '\000'
      done;
      if not ok then Bytes.set !local_ok pid '\000';
      let dep_ids = Array.make !ndeps 0 in
      let k = ref 0 in
      for j = base to top - 1 do
        let c' = sink.c.(j) in
        if c' >= 0 then begin
          dep_ids.(!k) <- explore c' sink.t.(j) sink.s.(j);
          incr k
        end
      done;
      sink.top <- base;
      !deps.(pid) <- dep_ids;
      pid
    end
  in
  let root_ids = List.map (fun (c, t, s) -> explore c t s) roots in
  let n = pairs.Tuples.count in
  let rdeps = Array.make (max n 1) [] in
  for pid = 0 to n - 1 do
    Array.iter (fun q -> rdeps.(q) <- pid :: rdeps.(q)) !deps.(pid)
  done;
  let alive = Array.make (max n 1) true in
  let stack = ref [] in
  for pid = 0 to n - 1 do
    if Bytes.get !local_ok pid = '\000' then begin
      alive.(pid) <- false;
      stack := pid :: !stack
    end
  done;
  let rec drain () =
    match !stack with
    | [] -> ()
    | pid :: rest ->
      stack := rest;
      Engine.Budget.check budget;
      List.iter
        (fun r ->
          if alive.(r) then begin
            alive.(r) <- false;
            stack := r :: !stack
          end)
        rdeps.(pid);
      drain ()
  in
  drain ();
  ( List.for_all (fun pid -> alive.(pid)) root_ids,
    n,
    fun c t s ->
      let pid = find c t s in
      pid >= 0 && alive.(pid) )
