(** Engine-swept litmus/soundness matrices (see matrix.mli).

    Every sweep here parallelizes at row granularity; all deterministic
    columns (verdicts, pair/state counts) are computed with row-local or
    per-domain memo state so they are byte-identical for every [jobs]
    setting — only the trailing [ms] column may vary. *)

open Lang
module M = Promising.Machine

(* ------------------------------------------------------------------ *)
(* E1/E2: transformation soundness                                      *)
(* ------------------------------------------------------------------ *)

type e12_row = {
  tr : Catalog.transformation;
  simple_got : Catalog.verdict;
  advanced_got : Catalog.verdict;
  pairs : int;
  wall_ms : float;
}

let e12_ok (r : e12_row) =
  r.simple_got = r.tr.Catalog.simple && r.advanced_got = r.tr.Catalog.advanced

let verdict b = if b then Catalog.Sound else Catalog.Unsound

(* An undecided row raises [Failure]; the supervised sweep reports it. *)
let e12_row ?values ?budget (tr : Catalog.transformation) : e12_row =
  let row, ms =
    Engine.Stats.timed (fun () ->
        let src = Parser.stmt_of_string tr.Catalog.src in
        let tgt = Parser.stmt_of_string tr.Catalog.tgt in
        let o =
          Optimizer.Validate.run ?values ~fast_path:false ?budget ~src ~tgt ()
        in
        let simple, advanced = Optimizer.Validate.notions o.answer in
        {
          tr;
          simple_got = verdict simple;
          advanced_got = verdict advanced;
          pairs = o.pairs;
          wall_ms = 0.;
        })
  in
  { row with wall_ms = ms }

(** The fault-tolerant sweep: one supervised outcome per corpus entry, in
    corpus order; never raises (see {!Engine.Sweep.run_verdict}). *)
let e12_rows ?pool ?jobs ?values ?budget ?retries ?faults
    ?(corpus = Catalog.transformations) () :
    (Catalog.transformation * e12_row Engine.Sweep.outcome) list =
  let outcomes =
    Engine.Sweep.run_verdict ?pool ?jobs ?budget ?retries ?faults
      ~f:(fun ~budget tr -> e12_row ?values ~budget tr)
      corpus
  in
  List.combine corpus outcomes

let bpr buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

(* Every table renders the same way: [header], then per outcome either
   its row ([row] returns false on a mismatch or violation) or, for a
   failed task, a row carrying [UNKNOWN(reason)], then the footer line.
   The footer gets [, N unknown] only when N > 0, so a table with no
   failed task reads the same however it was budgeted. *)
let render ~header ~row ~unknown ~footer outcomes =
  let buf = Buffer.create 2048 in
  bpr buf "%s\n" header;
  let bad = ref 0 and unknowns = ref 0 in
  List.iter
    (fun (task, (o : _ Engine.Sweep.outcome)) ->
      match o.result with
      | Ok r -> if not (row buf r) then incr bad
      | Error reason ->
        incr unknowns;
        unknown buf task o
          (Printf.sprintf "UNKNOWN(%s)"
             (Engine.Verdict.reason_to_string reason)))
    outcomes;
  bpr buf "-- %s%s\n" (footer outcomes !bad)
    (if !unknowns > 0 then Printf.sprintf ", %d unknown" !unknowns else "");
  Buffer.contents buf

(* The bracketed wall-clock column of the litmus and grid tables. *)
let ms_col stats ms = if stats then Printf.sprintf "  [%.1f]" ms else ""

let render_e12 ?(stats = false) rows =
  let ms_col ms = if stats then Printf.sprintf " %.1f" ms else "" in
  let exp_got expected got =
    Printf.sprintf "%s/%s" (Catalog.verdict_to_string expected) got
  in
  render rows
    ~header:
      (Printf.sprintf "%-32s %-26s %-18s %-18s %-10s %-8s%s" "name"
         "paper ref" "simple(exp/got)" "advanced(exp/got)" "ok" "pairs"
         (if stats then " ms" else ""))
    ~row:(fun buf (r : e12_row) ->
      let ok = e12_ok r in
      bpr buf "%-32s %-26s %-18s %-18s %-10s %-8d%s\n" r.tr.Catalog.name
        r.tr.Catalog.paper_ref
        (exp_got r.tr.Catalog.simple (Catalog.verdict_to_string r.simple_got))
        (exp_got r.tr.Catalog.advanced
           (Catalog.verdict_to_string r.advanced_got))
        (if ok then "ok" else "MISMATCH")
        r.pairs (ms_col r.wall_ms);
      ok)
    ~unknown:(fun buf (tr : Catalog.transformation) o unknown ->
      bpr buf "%-32s %-26s %-18s %-18s %-10s %-8s%s\n" tr.Catalog.name
        tr.Catalog.paper_ref
        (exp_got tr.Catalog.simple "?")
        (exp_got tr.Catalog.advanced "?")
        unknown "-" (ms_col o.Engine.Sweep.wall_ms))
    ~footer:(fun rows bad ->
      Printf.sprintf "%d transformations, %d mismatches" (List.length rows)
        bad)

(* ------------------------------------------------------------------ *)
(* E4: PS_na litmus outcomes                                            *)
(* ------------------------------------------------------------------ *)

type e4_row = {
  c : Catalog.concurrent;
  states : int;
  races : bool;
  truncated : bool;
  behaviors : string;
  wall_ms : float;
}

let e4_row ?params ?memo ?budget (c : Catalog.concurrent) : e4_row =
  let row, ms =
    Engine.Stats.timed (fun () ->
        let r =
          M.explore ?params ?memo ?budget
            (Parser.threads_of_string c.Catalog.threads)
        in
        {
          c;
          states = r.M.states;
          races = r.M.races;
          truncated = r.M.truncated;
          behaviors = Fmt.str "%a" M.pp_behaviors r.M.behaviors;
          wall_ms = 0.;
        })
  in
  { row with wall_ms = ms }

(** Fault-tolerant E4 sweep; worker domains keep a per-domain
    certification memo across their tasks. *)
let e4_rows ?pool ?jobs ?params ?budget ?retries ?faults
    ?(corpus = Catalog.concurrent_programs) () :
    (Catalog.concurrent * e4_row Engine.Sweep.outcome) list =
  let outcomes =
    Engine.Sweep.run_verdict_with ?pool ?jobs ?budget ?retries ?faults
      ~init:M.make_memo
      ~f:(fun memo ~budget c -> e4_row ?params ~memo ~budget c)
      corpus
  in
  List.combine corpus outcomes

let render_e4 ?(stats = false) rows =
  render rows
    ~header:
      (Printf.sprintf "%-12s %-18s %-8s %-7s %s%s" "litmus" "paper ref"
         "states" "races" "behaviors"
         (if stats then "  [ms]" else ""))
    ~row:(fun buf (r : e4_row) ->
      bpr buf "%-12s %-18s %-8d %-7b %s%s%s\n" r.c.Catalog.cname
        r.c.Catalog.cref r.states r.races r.behaviors
        (if r.truncated then " (TRUNCATED)" else "")
        (ms_col stats r.wall_ms);
      true)
    ~unknown:(fun buf (c : Catalog.concurrent) o unknown ->
      bpr buf "%-12s %-18s %-8s %-7s %s%s\n" c.Catalog.cname c.Catalog.cref
        "-" "-" unknown
        (ms_col stats o.Engine.Sweep.wall_ms))
    ~footer:(fun rows _ ->
      Printf.sprintf "%d litmus programs" (List.length rows))

(* ------------------------------------------------------------------ *)
(* E5: adequacy                                                         *)
(* ------------------------------------------------------------------ *)

let render_e5 ?(stats = false) rows =
  render rows
    ~header:
      (Printf.sprintf "%-32s %-9s %-11s %-20s%s" "transformation" "SEQ-adv"
         "PS-refines" "ok"
         (if stats then " pairs    states    hits" else ""))
    ~row:(fun buf (r : Adequacy.row) ->
      let all_refine =
        List.for_all (fun (_, ok, _) -> ok) r.Adequacy.contexts
      in
      let ok = Adequacy.row_ok r in
      bpr buf "%-32s %-9b %-11b %-20s%s\n" r.Adequacy.tr.Catalog.name
        r.Adequacy.seq_advanced all_refine
        (if ok then "ok" else "ADEQUACY VIOLATION")
        (if stats then
           Printf.sprintf " %-8d %-9d %d" r.Adequacy.seq_pairs
             r.Adequacy.states r.Adequacy.memo_hits
         else "");
      ok)
    ~unknown:(fun buf (tr : Catalog.transformation) _ unknown ->
      bpr buf "%-32s %-9s %-11s %-20s%s\n" tr.Catalog.name "-" "-" unknown
        (if stats then " -        -         -" else ""))
    ~footer:(fun rows violations ->
      let n_contexts =
        List.find_map
          (fun (_, (o : Adequacy.row Engine.Sweep.outcome)) ->
            match o.result with
            | Ok r -> Some (List.length r.Adequacy.contexts)
            | Error _ -> None)
          rows
        |> Option.value ~default:0
      in
      Printf.sprintf "%d rows x %d contexts, %d adequacy violations"
        (List.length rows) n_contexts violations)

(* ------------------------------------------------------------------ *)
(* E15: the N-model differential grid                                   *)
(* ------------------------------------------------------------------ *)

module B = Backends.Backend

(** Backends the litmus grid sweeps, in strength order. *)
let e15_models = [ "sc"; "tso"; "armv8"; "ps" ]

(** Backends the pass-soundness grid sweeps ([catchfire] joins: it is
    the one model that refutes load introduction, E6). *)
let e15p_models = [ "sc"; "catchfire"; "tso"; "armv8"; "ps" ]

type e15_row = {
  ge : Catalog.grid_entry;
  cells : (string * bool) list;  (* backend name -> weak outcome allowed *)
  chain_ok : bool;  (* SC ⊆ TSO ⊆ ARMv8 held on this row *)
  truncated : bool;
  wall_ms : float;
}

let e15_ok (r : e15_row) =
  r.chain_ok
  && List.for_all
       (fun (m, got) ->
         match List.assoc_opt m r.ge.Catalog.allowed with
         | Some expect -> got = expect
         | None -> true)
       r.cells

let machine name : (module B.MACHINE) =
  match Backends.Registry.find name with
  | Some m -> m
  | None -> invalid_arg ("Matrix: unknown backend " ^ name)

let e15_row ?values ?max_states ?budget (ge : Catalog.grid_entry) : e15_row =
  let row, ms =
    Engine.Stats.timed (fun () ->
        let progs = Parser.threads_of_string ge.Catalog.g.Catalog.threads in
        let weak =
          B.Ret (List.map (fun n -> (Value.Int n, [])) ge.Catalog.weak)
        in
        let results =
          List.map
            (fun name ->
              let (module M : B.MACHINE) = machine name in
              (name, M.explore ?values ?max_states ?budget progs))
            e15_models
        in
        let get name = List.assoc name results in
        {
          ge;
          cells =
            List.map
              (fun (name, r) -> (name, B.Behavior_set.mem weak r.B.behaviors))
              results;
          chain_ok =
            B.subset ~small:(get "sc") ~big:(get "tso")
            && B.subset ~small:(get "tso") ~big:(get "armv8");
          truncated = List.exists (fun (_, r) -> r.B.truncated) results;
          wall_ms = 0.;
        })
  in
  { row with wall_ms = ms }

(** The fault-tolerant grid sweep, supervised as {!e12_rows}. *)
let e15_rows ?pool ?jobs ?values ?budget ?retries ?faults
    ?(corpus = Catalog.grid_programs) () :
    (Catalog.grid_entry * e15_row Engine.Sweep.outcome) list =
  let outcomes =
    Engine.Sweep.run_verdict ?pool ?jobs ?budget ?retries ?faults
      ~f:(fun ~budget ge -> e15_row ?values ~budget ge)
      corpus
  in
  List.combine corpus outcomes

let e15_weak_string (ge : Catalog.grid_entry) =
  String.concat "," (List.map string_of_int ge.Catalog.weak)

let render_e15 ?(stats = false) rows =
  render rows
    ~header:
      (Printf.sprintf "%-12s %-18s %-10s %-7s %-7s %-7s %-7s %-9s %s%s"
         "litmus" "paper ref" "weak" "sc" "tso" "armv8" "ps" "chain" "ok"
         (if stats then "  [ms]" else ""))
    ~row:(fun buf (r : e15_row) ->
      let ok = e15_ok r in
      let cell name =
        match List.assoc_opt name r.cells with
        | Some true -> "allow"
        | Some false -> "forbid"
        | None -> "-"
      in
      bpr buf "%-12s %-18s %-10s %-7s %-7s %-7s %-7s %-9s %s%s%s\n"
        r.ge.Catalog.g.Catalog.cname r.ge.Catalog.g.Catalog.cref
        (e15_weak_string r.ge) (cell "sc") (cell "tso") (cell "armv8")
        (cell "ps")
        (if r.chain_ok then "ok" else "VIOLATION")
        (if ok then "ok" else "MISMATCH")
        (if r.truncated then " (TRUNCATED)" else "")
        (ms_col stats r.wall_ms);
      ok)
    ~unknown:(fun buf (ge : Catalog.grid_entry) o unknown ->
      bpr buf "%-12s %-18s %-10s %-7s %-7s %-7s %-7s %-9s %s%s\n"
        ge.Catalog.g.Catalog.cname ge.Catalog.g.Catalog.cref
        (e15_weak_string ge) "-" "-" "-" "-" "-" unknown
        (ms_col stats o.Engine.Sweep.wall_ms))
    ~footer:(fun rows mismatches ->
      Printf.sprintf "%d grid rows, %d mismatches" (List.length rows)
        mismatches)

(* The pass-soundness half of E15: SEQ-validated transformations in a
   concurrent context, re-checked as behavior-set refinement per
   backend. *)

type e15p_row = {
  tr : Catalog.transformation;
  ctx_name : string;
  cells : (string * bool) list;  (* backend name -> tgt refines src *)
  truncated : bool;
  wall_ms : float;
}

let e15p_row ?values ?max_states ?budget ((tr_name, ctx_name) : string * string)
    : e15p_row =
  let row, ms =
    Engine.Stats.timed (fun () ->
        let tr =
          match Catalog.find_transformation tr_name with
          | Some tr -> tr
          | None -> invalid_arg ("Matrix: unknown transformation " ^ tr_name)
        in
        let ctx =
          match List.assoc_opt ctx_name Catalog.contexts with
          | Some c -> c
          | None -> invalid_arg ("Matrix: unknown context " ^ ctx_name)
        in
        let src = Parser.threads_of_string (tr.Catalog.src ^ " ||| " ^ ctx) in
        let tgt = Parser.threads_of_string (tr.Catalog.tgt ^ " ||| " ^ ctx) in
        let truncated = ref false in
        let cells =
          List.map
            (fun name ->
              let (module M : B.MACHINE) = machine name in
              let r_src = M.explore ?values ?max_states ?budget src in
              let r_tgt = M.explore ?values ?max_states ?budget tgt in
              if r_src.B.truncated || r_tgt.B.truncated then truncated := true;
              (name, B.refines ~src:r_src ~tgt:r_tgt))
            e15p_models
        in
        { tr; ctx_name; cells; truncated = !truncated; wall_ms = 0. })
  in
  { row with wall_ms = ms }

(** The fault-tolerant pass-grid sweep. *)
let e15p_rows ?pool ?jobs ?values ?budget ?retries ?faults
    ?(corpus = Catalog.grid_passes) () :
    ((string * string) * e15p_row Engine.Sweep.outcome) list =
  let outcomes =
    Engine.Sweep.run_verdict ?pool ?jobs ?budget ?retries ?faults
      ~f:(fun ~budget pc -> e15p_row ?values ~budget pc)
      corpus
  in
  List.combine corpus outcomes

let render_e15p ?(stats = false) rows =
  render rows
    ~header:
      (Printf.sprintf "%-26s %-20s %-9s %-11s %-9s %-9s %-9s%s"
         "transformation" "context" "sc" "catchfire" "tso" "armv8" "ps"
         (if stats then "  [ms]" else ""))
    ~row:(fun buf (r : e15p_row) ->
      let cell name =
        match List.assoc_opt name r.cells with
        | Some true -> "ok"
        | Some false -> "REFUTED"
        | None -> "-"
      in
      bpr buf "%-26s %-20s %-9s %-11s %-9s %-9s %-9s%s%s\n" r.tr.Catalog.name
        r.ctx_name (cell "sc") (cell "catchfire") (cell "tso") (cell "armv8")
        (cell "ps")
        (if r.truncated then " (TRUNCATED)" else "")
        (ms_col stats r.wall_ms);
      true)
    ~unknown:(fun buf (tr_name, ctx_name) o unknown ->
      bpr buf "%-26s %-20s %s%s\n" tr_name ctx_name unknown
        (ms_col stats o.Engine.Sweep.wall_ms))
    ~footer:(fun rows _ -> Printf.sprintf "%d pass rows" (List.length rows))
