(** Happens-before data-race detection shared by the SC ({!Sc}), TSO and
    ARMv8 machines: vector clocks with release/acquire synchronisation as
    a self-contained component.  Synchronization order is the same under
    SC, TSO and ARMv8 — buffering relaxes visibility, not happens-before
    — so every machine's race verdict uses one definition: a conflicting
    unordered pair with at least one non-atomic access (§5).

    One thread has no happens-before: all its accesses are ordered by
    program order, so a one-thread component keeps no clocks and no
    per-location history, never races, and compares equal to any other
    one-thread component.  A one-thread state key is therefore free of
    clocks, and a loop that stores with release revisits its states. *)

open Lang

type t

(** [make n]: initial component for [n] threads.  For [n <= 1] it is
    the clock-free one-thread component, which every access below
    returns unchanged. *)
val make : int -> t

(** A race has been observed on some path into this state. *)
val raced : t -> bool

(** Would a read of the location by [tid] form a conflicting unordered
    pair of {e any} access modes with the recorded history (the premise
    of the DRF-SC and DRF-LOCK guarantees)?  Ask before {!read}. *)
val strict_read_race : t -> tid:int -> Loc.t -> bool

(** The same for a write (or an RMW); ask before {!write}/{!update}. *)
val strict_write_race : t -> tid:int -> Loc.t -> bool

(** A read access by [tid]: race check, acquire synchronisation when
    [acq], history recording. *)
val read : t -> tid:int -> Loc.t -> atomic:bool -> acq:bool -> t

(** A write access by [tid]: race check, release synchronisation when
    [rel], history recording. *)
val write : t -> tid:int -> Loc.t -> atomic:bool -> rel:bool -> t

(** An RMW by [tid]: atomic acquire read plus — when [write] — a release
    write (a failed CAS is read-only). *)
val update : t -> tid:int -> Loc.t -> write:bool -> t

(** A fence by [tid], synchronising through a distinguished token
    location. *)
val fence : t -> tid:int -> Mode.fence -> t

(** Total order for state-key comparators.  The per-location access
    history is deliberately excluded: it is a function of the history
    summarised by clocks and the race flag.  Any two one-thread
    components are equal. *)
val compare : t -> t -> int
