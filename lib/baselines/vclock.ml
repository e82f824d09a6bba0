(** Vector clocks for the shared happens-before race detection ({!Hb}). *)

type t = int array  (* index = thread id *)

let make n = Array.make n 0

(** Initial clock of thread [tid]: its own component starts at 1 so that
    its accesses are unordered with other threads' initial clocks (epochs
    at 0 would be vacuously ordered). *)
let init_thread n tid =
  let c = Array.make n 0 in
  c.(tid) <- 1;
  c

let tick (c : t) (tid : int) =
  let c = Array.copy c in
  c.(tid) <- c.(tid) + 1;
  c

let join (a : t) (b : t) : t = Array.mapi (fun i x -> max x b.(i)) a

(** epoch (tid, clock) ≤ vector clock *)
let epoch_le ((tid, clk) : int * int) (c : t) = clk <= c.(tid)

let le (a : t) (b : t) =
  let ok = ref true in
  Array.iteri (fun i x -> if x > b.(i) then ok := false) a;
  !ok

let compare (a : t) (b : t) = Stdlib.compare a b
