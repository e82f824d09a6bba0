(** Empirical validation of the adequacy theorem (Thm 6.2, E5).

    Adequacy states: if σ_tgt ⊑w σ_src in SEQ (and σ_src is deterministic,
    which WHILE programs are by construction), then for {e any} concurrent
    context, the target contextually refines the source in PS_na.  We
    cannot quantify over all contexts, but we can falsify: for every corpus
    transformation and every context in the library, a SEQ-accepted
    transformation must PS_na-refine.  A single SEQ-accepts/PS_na-refutes
    pair would be a counterexample to the implementation (or the
    theorem). *)

open Lang
module M = Promising.Machine

type row = {
  tr : Catalog.transformation;
  seq_simple : bool;
  seq_advanced : bool;
  seq_pairs : int;  (** SEQ simulation pairs explored (simple + advanced) *)
  contexts : (string * bool * bool) list;
      (** context name, PS_na refines, exploration complete *)
  states : int;  (** PS_na states explored, summed over the contexts *)
  memo_hits : int;  (** certification-memo hits across the row *)
}

(** Does the adequacy implication hold on this row? *)
let row_ok (r : row) =
  (not r.seq_advanced) || List.for_all (fun (_, refines, _) -> refines) r.contexts

let check_transformation ?(params = Promising.Thread.default_params)
    ?contexts ?memo ?budget (tr : Catalog.transformation) : row =
  let contexts = Option.value contexts ~default:Catalog.contexts in
  (* one memo per row: the src thread's certification verdicts recur
     across contexts, and a row-local table keeps the hit count
     deterministic however rows are scheduled *)
  let memo = match memo with Some m -> m | None -> M.make_memo () in
  let src = Parser.stmt_of_string tr.Catalog.src in
  let tgt = Parser.stmt_of_string tr.Catalog.tgt in
  let seq =
    Optimizer.Validate.run ~values:params.Promising.Thread.values
      ~fast_path:false ?budget ~src ~tgt ()
  in
  let seq_simple, seq_advanced = Optimizer.Validate.notions seq.answer in
  let states = ref 0 in
  let memo_hits = ref 0 in
  let contexts =
    List.map
      (fun (name, ctx_src) ->
        let ctx_threads = Parser.threads_of_string ctx_src in
        (* a ⊥ behavior of the source matches everything, so the source
           exploration may stop at the first ⊥ and skip the target *)
        let rs =
          M.explore ~params ~until_bot:true ~memo ?budget (src :: ctx_threads)
        in
        states := !states + rs.M.states;
        memo_hits := !memo_hits + rs.M.memo_hits;
        if M.Behavior_set.mem M.Bot rs.M.behaviors then (name, true, true)
        else begin
          let rt = M.explore ~params ~memo ?budget (tgt :: ctx_threads) in
          states := !states + rt.M.states;
          memo_hits := !memo_hits + rt.M.memo_hits;
          ( name,
            M.refines ~src:rs.M.behaviors ~tgt:rt.M.behaviors,
            (not rs.M.truncated) && not rt.M.truncated )
        end)
      contexts
  in
  {
    tr;
    seq_simple;
    seq_advanced;
    seq_pairs = seq.pairs;
    contexts;
    states = !states;
    memo_hits = !memo_hits;
  }

(** Run the experiment over (a sublist of) the corpus: one supervised
    outcome per row, in corpus order; never raises (see
    {!Engine.Sweep.run_verdict}). *)
let run ?pool ?jobs ?params ?contexts ?budget ?retries ?faults
    ?(corpus = Catalog.transformations) () :
    (Catalog.transformation * row Engine.Sweep.outcome) list =
  let outcomes =
    Engine.Sweep.run_verdict ?pool ?jobs ?budget ?retries ?faults
      ~f:(fun ~budget tr -> check_transformation ?params ?contexts ~budget tr)
      corpus
  in
  List.combine corpus outcomes
