(** The id-level pair-graph solver shared by the fast paths of
    {!Refine} and {!Advanced}: a pair is a (commitment mask, target id,
    source id) triple over one {!Core} context's configuration ids, and
    the simple game uses commitment mask 0. *)

type sink
(** Where [analyze] reports a pair's answers, one per instantiated
    target move, in move order. *)

val const : sink -> bool -> unit
(** The source's answer to one target move is decided. *)

val dep : sink -> int -> int -> int -> unit
(** [dep sink c t s]: the answer holds iff the pair (commitment mask
    [c >= 0], target id [t], source id [s]) holds. *)

val sink : unit -> sink
(** A fresh, empty sink. *)

type answer = Const of bool | Dep of int * int * int

val answers : sink -> answer list
(** The answers reported to a sink, in order. *)

val solve :
  ?budget:Engine.Budget.t ->
  analyze:(sink -> int -> int -> int -> bool) ->
  (int * int * int) list ->
  bool * int * (int -> int -> int -> bool)
(** [solve ~analyze roots] explores every pair reachable from [roots] —
    [analyze sink c t s] reports a pair's answers to [sink] and returns
    its local obligation — and returns whether every root lies in the
    greatest fixpoint, the number of pairs explored, and the fixpoint
    itself: [alive c t s] holds iff the pair was explored and survived.
    The DFS charges [budget] one state per new pair, registers a pair
    before analyzing it, and explores its dependencies in answer order:
    the same pair set, order and spend points as the set-based reference
    solver (test/seq_ref), so the count equals its. *)
