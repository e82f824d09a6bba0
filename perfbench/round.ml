(* What one round of a workload reports, and what the workloads share. *)

type t = {
  attempted : int;
  verify : unit -> int * string list;
      (** run after the round is measured: the operations that hit the
          known fault, and the output checks that did not hold *)
  item_words : float list;  (** words allocated by each item, in order *)
  counts : (string * float) list;
      (** workload figures printed with the per-layer metrics *)
  latencies : (string * float list) list;  (** reference timings, in ms *)
}

let empty =
  { attempted = 0; verify = (fun () -> (0, [])); item_words = []; counts = [];
    latencies = [] }

(* A workload: [setup] builds the inputs (and starts what the round talks
   to); [run] performs one round on them; [discard] removes what a set-up
   left behind, after a round or after a set-up measured alone; [extra]
   is work only the traced run does.  [settle] starts every round after a
   full major collection. *)
type 'a workload = {
  settle : bool;
  setup : seed:int -> 'a;
  run : 'a -> t;
  discard : 'a -> unit;
  extra : 'a -> unit;
}

let quantile q l =
  match List.sort compare l with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (Float.of_int n *. q)))

let median l = quantile 0.5 l

(* Out-of-line checks fail the round with a message, not an exception. *)
let check errors cond fmt =
  Printf.ksprintf (fun msg -> if not cond then errors := msg :: !errors) fmt
