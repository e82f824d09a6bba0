(** Vector clocks for the shared happens-before race detection ({!Hb}). *)

type t = int array  (** index = thread id *)

val make : int -> t

(** Initial clock of a thread: its own component starts at 1 so that its
    accesses are unordered with other threads' initial clocks. *)
val init_thread : int -> int -> t

val tick : t -> int -> t
val join : t -> t -> t

(** epoch (tid, clock) ≤ vector clock *)
val epoch_le : int * int -> t -> bool

val le : t -> t -> bool
val compare : t -> t -> int
