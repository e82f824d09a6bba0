(* validate: certified optimisation of generated programs, and the SEQ
   refinement checks of the catalog pairs (the [seqcheck --corpus] path).

   Inputs: [gen_count] programs [Gen.gen_program Gen.default_config
   (Random.State.make [|13; i|])] with sizes spread evenly over 8..48,
   the stored reproducer of the forwarding-into-freeze fault, and the
   catalog transformations.  The seed picks one consistent renaming of
   registers and locations for every input; the work done is the same for
   every seed. *)

open Lang
module V = Optimizer.Validate
module D = Optimizer.Driver
module C = Litmus.Catalog

let gen_count = 44
let gen_size i = 8 + (40 * i / (gen_count - 1))
let reproducer_file = "perfbench/data/llf_freeze.wm"

(* The items whose static fast-path proof the enumeration refutes today
   (the known forwarding-into-freeze fault).  A refuted static proof of
   any other item is a check error. *)
let known_fault = [ "llf_freeze.wm"; "gen[13;23]"; "gen[13;34]" ]

(* The reproducer's source as the README regenerates it. *)
let reproducer () =
  Gen.gen_program Gen.default_config (Random.State.make [| 7; 4 |]) ~size:40

type item =
  | Program of string * Stmt.t  (** label, renamed program *)
  | Pair of C.transformation  (** renamed catalog pair *)

type inputs = { items : item list }

let label = function Program (l, _) -> l | Pair tr -> "pair:" ^ tr.C.name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let parse text = Trace.span "lang.parse" (fun () -> Parser.stmt_of_string text)

let setup ~seed =
  let tag = List.hd (Rename.tags ~seed 1) in
  let gen =
    List.init gen_count (fun i ->
        let p =
          Trace.span "lang.gen" (fun () ->
              Gen.gen_program Gen.default_config
                (Random.State.make [| 13; i |])
                ~size:(gen_size i))
        in
        Program
          (Printf.sprintf "gen[13;%d]" i,
           parse (Stmt.to_string (Rename.stmt tag p))))
  in
  let repro =
    Program
      ("llf_freeze.wm",
       parse (Rename.text tag (read_file reproducer_file)))
  in
  let pairs =
    List.map
      (fun (tr : C.transformation) ->
        Pair
          { tr with C.src = Rename.text tag tr.C.src;
                    tgt = Rename.text tag tr.C.tgt })
      C.transformations
  in
  { items = (repro :: gen) @ pairs }

let proof_group (v : V.verdict) =
  match v.V.proof with
  | V.Static _ -> "optimizer.validate.static"
  | V.Static_abs _ -> "optimizer.validate.static_abs"
  | V.Enumerated -> "optimizer.validate.enumerated"

type result =
  | Optimized of string * Stmt.t * D.report * V.verdict
  | Checked of Litmus.Matrix.e12_row

let run_item = function
  | Program (label, src) ->
    let report =
      Trace.span "optimizer.optimize" (fun () -> D.optimize src)
    in
    Trace.count "optimizer.optimize.rewrites"
      (float_of_int
         (List.fold_left (fun n p -> n + p.D.rewrites) 0 report.D.passes));
    Trace.count "optimizer.optimize.size_after"
      (float_of_int report.D.size_after);
    (* [Validate.certified_optimize], split so each layer is a span *)
    let v =
      Trace.span ~group:proof_group "optimizer.validate" (fun () ->
          V.validate ~fast_path:true ~src:report.D.input
            ~tgt:report.D.output ())
    in
    Optimized (label, src, report, v)
  | Pair tr ->
    let row =
      Trace.span "seq_model.corpus" (fun () -> Litmus.Matrix.e12_row tr)
    in
    Trace.count "seq_model.corpus.pairs" (float_of_int row.Litmus.Matrix.pairs);
    Checked row

(* Checks made after the measured items: a fast-path verdict must agree
   with the enumerated Def 3.3 check, and the optimizer must be
   idempotent on its own output.  A static proof of a rewrite the
   enumeration refutes, on one of the [known_fault] items, is counted as
   failed; an item of [known_fault] that no longer fails is reported as
   fixed on standard error. *)
let check_results results =
  let errors = ref [] and failed = ref 0 in
  List.iter
    (function
      | Optimized (label, src, report, v) ->
        let out = report.D.output in
        Round.check errors v.V.valid "%s: optimizer output not certified" label;
        let enum = V.validate ~fast_path:false ~src ~tgt:out () in
        let static =
          match v.V.proof with V.Static _ | V.Static_abs _ -> true | V.Enumerated -> false
        in
        let known = List.mem label known_fault in
        if v.V.valid && not enum.V.valid then begin
          if static && known then begin
            prerr_endline ("perfbench: known fault (static proof refuted): " ^ label);
            incr failed
          end
          else
            Round.check errors false "%s: %s proof refuted by the enumeration"
              label (if static then "static" else "enumerated")
        end
        else if known then
          prerr_endline ("perfbench: known fault no longer shows: " ^ label);
        let again = (D.optimize out).D.output in
        Round.check errors
          (Stmt.normalize again = Stmt.normalize out)
          "%s: optimizer not idempotent" label
      | Checked row ->
        let tr = row.Litmus.Matrix.tr in
        Round.check errors
          (row.Litmus.Matrix.simple_got = tr.C.simple
           && row.Litmus.Matrix.advanced_got = tr.C.advanced)
          "%s: verdicts differ from the catalog" tr.C.name)
    results;
  (!failed, List.rev !errors)

(* Every round computes the same outputs; only the first is checked in
   full, later rounds are compared with it. *)
let reference : (result list * int * string list) option ref = ref None

let same_output a b =
  match (a, b) with
  | Optimized (_, _, r1, v1), Optimized (_, _, r2, v2) ->
    r1.D.output = r2.D.output && v1.V.valid = v2.V.valid
  | Checked r1, Checked r2 ->
    r1.Litmus.Matrix.simple_got = r2.Litmus.Matrix.simple_got
    && r1.Litmus.Matrix.advanced_got = r2.Litmus.Matrix.advanced_got
  | _ -> false

let run (inp : inputs) =
  let results_words =
    List.mapi
      (fun i it ->
        Trace.item i (label it) (fun () ->
            let r, w, _ = Trace.measure ~settle:true (fun () -> run_item it) in
            (r, w)))
      inp.items
  in
  let results = List.map fst results_words in
  let verify () =
    match !reference with
    | Some (first, failed, errors) ->
      if List.length first = List.length results
         && List.for_all2 same_output first results
      then (failed, errors)
      else (failed, "outputs differ from the first round" :: errors)
    | None ->
      let failed, errors = check_results results in
      reference := Some (results, failed, errors);
      (failed, errors)
  in
  { Round.empty with
    attempted = List.length inp.items;
    verify;
    item_words = List.map snd results_words }

let workload =
  { Round.settle = false; setup; run; discard = ignore; extra = ignore }
