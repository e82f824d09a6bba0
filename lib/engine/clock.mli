(** The monotonic clock every engine deadline and timer reads.

    Wall-clock time ([Unix.gettimeofday]) can jump backwards or forwards
    when the system clock is adjusted, which would make a budget deadline
    fire early or never, and a measured duration negative.  The readings
    here only ever grow; their origin is arbitrary, so only differences
    between two readings mean anything. *)

(** Seconds since an arbitrary fixed origin, from the OS monotonic clock. *)
val now : unit -> float
