(* Phase 1 registers a pair before analyzing it (cutting cycles) and
   then explores its dependencies in order, charging the budget one state
   per new pair — the DFS of the set-based reference solvers.  Phase 2
   computes the same greatest fixpoint by reverse-dependency
   propagation: a pair dies iff its local obligations fail or it
   depends, transitively, on a dead pair — O(pairs + deps) instead of
   repeated full passes. *)

type answer = Const of bool | Dep of int * int * int

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((c, t, s) : t) (c', t', s') = c = c' && t = t' && s = s'
  let hash = Hashtbl.hash
end)

let solve ?(budget = Engine.Budget.unlimited)
    ~(analyze : int -> int -> int -> bool * answer list)
    (roots : (int * int * int) list) : bool * int =
  let pair_ids = Pair_tbl.create 64 in
  let local_ok = ref (Bytes.make 64 '\001') in
  let deps = ref (Array.make 64 [||]) in
  let count = ref 0 in
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
  let rec explore c t s =
    let key = (c, t, s) in
    match Pair_tbl.find pair_ids key with
    | pid -> pid
    | exception Not_found ->
      Engine.Budget.spend_state budget;
      let pid = !count in
      incr count;
      ensure !count;
      Pair_tbl.add pair_ids key pid;
      let node_ok, node_deps = analyze c t s in
      let ok = ref node_ok in
      let dep_ids =
        List.filter_map
          (function
            | Const true -> None
            | Const false ->
              ok := false;
              None
            | Dep (c', t', s') -> Some (explore c' t' s'))
          node_deps
      in
      if not !ok then Bytes.set !local_ok pid '\000';
      !deps.(pid) <- Array.of_list dep_ids;
      pid
  in
  let root_ids = List.map (fun (c, t, s) -> explore c t s) roots in
  let n = !count in
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
  (List.for_all (fun pid -> alive.(pid)) root_ids, n)
