(** Empirical validation of the adequacy theorem (Thm 6.2, experiment E5):
    every SEQ-(weakly-)validated transformation must contextually refine in
    PS_na for every context in the library; a single
    SEQ-accepts/PS_na-refutes pair would be a counterexample. *)

type row = {
  tr : Catalog.transformation;
  seq_simple : bool;
  seq_advanced : bool;
  seq_pairs : int;  (** SEQ simulation pairs explored (simple + advanced) *)
  contexts : (string * bool * bool) list;
      (** context name, PS_na refines, exploration complete *)
  states : int;  (** PS_na states explored, summed over the contexts *)
  memo_hits : int;
      (** certification-memo hits — the row's explorations share one memo
          context, so this is deterministic unless [memo] was pre-warmed *)
}

(** Does the adequacy implication hold on this row? *)
val row_ok : row -> bool

(** Check one corpus transformation against the context library.  All
    explorations of the row share [memo] (fresh by default), so the source
    thread's certification verdicts are computed once across contexts. *)
val check_transformation :
  ?params:Promising.Thread.params ->
  ?contexts:(string * string) list ->
  ?memo:Promising.Machine.memo ->
  ?budget:Engine.Budget.t ->
  Catalog.transformation ->
  row

(** The E5 sweep over (a sublist of) the corpus: one supervised outcome
    per row, in corpus order; never raises.  Each row gets a fresh memo
    context, so results and stats are identical for every [jobs]; each
    row attempt gets a fresh budget from [budget]; budget exhaustion and
    trapped exceptions become [Error] outcomes (see
    {!Engine.Sweep.run_verdict}). *)
val run :
  ?pool:Engine.Pool.t ->
  ?jobs:int ->
  ?params:Promising.Thread.params ->
  ?contexts:(string * string) list ->
  ?budget:Engine.Budget.spec ->
  ?retries:int ->
  ?faults:Engine.Faults.plan ->
  ?corpus:Catalog.transformation list ->
  unit ->
  (Catalog.transformation * row Engine.Sweep.outcome) list
