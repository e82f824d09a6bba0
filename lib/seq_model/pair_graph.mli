(** The id-level pair-graph solver shared by the fast paths of
    {!Refine} and {!Advanced}: a pair is a (commitment mask, target id,
    source id) triple over one {!Core} context's configuration ids, and
    the simple game uses commitment mask 0. *)

type answer =
  | Const of bool  (** the source's answer to one target move is decided *)
  | Dep of int * int * int
      (** it holds iff the pair (commitment mask, target id, source id)
          holds *)

val solve :
  ?budget:Engine.Budget.t ->
  analyze:(int -> int -> int -> bool * answer list) ->
  (int * int * int) list ->
  bool * int
(** [solve ~analyze roots] explores every pair reachable from [roots] —
    [analyze c t s] gives a pair's local obligation and one answer per
    instantiated target move — and returns whether every root lies in
    the greatest fixpoint, with the number of pairs explored.  The DFS
    charges [budget] one state per new pair, registers a pair before
    analyzing it, and explores its dependencies in list order: the same
    pair set, order and spend points as the set-based reference solvers,
    so the count equals theirs. *)
