(* litmus: PS_na exploration of the E4 catalog programs, the E15 grid
   under sc, tso, armv8 and ps, and adequacy (transformation, context)
   pairs (E5).

   Items: every grid program explored under each grid backend (sc, tso,
   armv8, ps); every catalog program that is not also a grid row under ps,
   and under sc for the PS_na-admits-SC check; and [adequacy_count] pairs
   drawn once, with the fixed seed [adequacy_seed], from the catalog
   transformations x contexts.  Five catalog programs are grid rows too
   (the same threads), so each program is explored once per machine.  The
   seed picks one consistent renaming of registers and locations for
   every program and context; the work done is the same for every seed. *)

open Lang
module C = Litmus.Catalog
module M = Promising.Machine
module B = Backends.Backend

let adequacy_count = 16
let adequacy_seed = 5

let adequacy_pairs =
  let st = Random.State.make [| adequacy_seed |] in
  let all =
    List.concat_map
      (fun tr -> List.map (fun ctx -> (tr, ctx)) C.contexts)
      C.transformations
    |> Array.of_list
  in
  (* a partial Fisher-Yates draw without repetition *)
  List.init adequacy_count (fun i ->
      let j = i + Random.State.int st (Array.length all - i) in
      let t = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- t;
      all.(i))

type item =
  | Explore of string * string * Stmt.t list
      (** program name, backend name, threads *)
  | Adequacy of C.transformation * (string * string)

type inputs = { items : item list; weak : (string * (int list * (string * bool) list)) list }

let label = function
  | Explore (prog, m, _) -> prog ^ "@" ^ m
  | Adequacy (tr, (ctx, _)) -> "e5:" ^ tr.C.name ^ "/" ^ ctx

let parse text =
  Trace.span "lang.parse" (fun () -> Parser.threads_of_string text)

let grid_models = Litmus.Matrix.e15_models

let setup ~seed =
  let tag = List.hd (Rename.tags ~seed 1) in
  let threads (c : C.concurrent) = parse (Rename.threads_text tag c.C.threads) in
  let in_grid (c : C.concurrent) =
    List.exists (fun (ge : C.grid_entry) -> ge.C.g.C.cname = c.C.cname)
      C.grid_programs
  in
  let catalog =
    List.filter (fun c -> not (in_grid c)) C.concurrent_programs
    |> List.concat_map (fun (c : C.concurrent) ->
           let ts = threads c in
           List.map (fun m -> Explore ("e4:" ^ c.C.cname, m, ts)) [ "sc"; "ps" ])
  in
  let grid =
    List.concat_map
      (fun (ge : C.grid_entry) ->
        let ts = threads ge.C.g in
        List.map (fun m -> Explore ("e15:" ^ ge.C.g.C.cname, m, ts)) grid_models)
      C.grid_programs
  in
  let adequacy =
    List.map
      (fun ((tr : C.transformation), (cname, ctx)) ->
        Adequacy
          ( { tr with C.src = Rename.text tag tr.C.src;
                      tgt = Rename.text tag tr.C.tgt },
            (cname, Rename.threads_text tag ctx) ))
      adequacy_pairs
  in
  let weak =
    List.map
      (fun (ge : C.grid_entry) ->
        ("e15:" ^ ge.C.g.C.cname, (ge.C.weak, ge.C.allowed)))
      C.grid_programs
  in
  { items = catalog @ grid @ adequacy; weak }

let machine name =
  match Backends.Registry.find name with
  | Some m -> m
  | None -> invalid_arg ("no backend " ^ name)

type result =
  | Explored of string * string * B.result
  | Row of Litmus.Adequacy.row

let run_item = function
  | Explore (prog, "ps", ts) ->
    let r = Trace.span "promising.explore" (fun () -> M.explore ts) in
    Trace.count "promising.explore.states" (float_of_int r.M.states);
    Trace.count "promising.explore.memo_hits" (float_of_int r.M.memo_hits);
    Explored
      ( prog, "ps",
        { B.behaviors = r.M.behaviors; races = r.M.races;
          truncated = r.M.truncated; states = r.M.states } )
  | Explore (prog, name, ts) ->
    let (module Mc : B.MACHINE) = machine name in
    let layer = "backends." ^ name ^ ".explore" in
    let r = Trace.span layer (fun () -> Mc.explore ts) in
    Trace.count (layer ^ ".states") (float_of_int r.B.states);
    Explored (prog, name, r)
  | Adequacy (tr, ctx) ->
    let row =
      Trace.span "litmus.adequacy" (fun () ->
          Litmus.Adequacy.check_transformation ~contexts:[ ctx ] tr)
    in
    Trace.count "litmus.adequacy.states" (float_of_int row.Litmus.Adequacy.states);
    Row row

let states = function
  | Explored (_, _, r) -> r.B.states
  | Row row -> row.Litmus.Adequacy.states

(* Checks: no exploration truncated, grid cells against the catalog's
   hand-written expectations, SC <= TSO <= ARMv8 on every grid row, PS_na
   admitting every SC behavior of every explored program, and the
   adequacy implication on every pair, with no truncated context. *)
let check_results weak results =
  let errors = ref [] in
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | Explored (prog, m, r) ->
        Round.check errors (not r.B.truncated) "%s/%s: truncated" prog m;
        Hashtbl.replace tbl (prog, m) r
      | Row row ->
        let name = row.Litmus.Adequacy.tr.C.name in
        Round.check errors (Litmus.Adequacy.row_ok row)
          "adequacy %s: SEQ accepts, PS_na refutes" name;
        List.iter
          (fun (ctx, _, complete) ->
            Round.check errors complete "adequacy %s/%s: truncated" name ctx)
          row.Litmus.Adequacy.contexts)
    results;
  let progs = Hashtbl.fold (fun (p, _) _ acc -> p :: acc) tbl [] in
  List.iter
    (fun prog ->
      let get m = Hashtbl.find_opt tbl (prog, m) in
      (match (get "ps", get "sc") with
       | Some ps, Some sc ->
         Round.check errors (B.refines ~src:ps ~tgt:sc)
           "%s: PS_na misses an SC behavior" prog
       | _ -> Round.check errors false "%s: missing exploration" prog);
      match List.assoc_opt prog weak with
      | None -> ()
      | Some (w, allowed) ->
        let outcome = B.Ret (List.map (fun n -> (Value.Int n, [])) w) in
        List.iter
          (fun (m, expected) ->
            match get m with
            | Some r ->
              Round.check errors
                (B.Behavior_set.mem outcome r.B.behaviors = expected)
                "%s/%s: weak outcome differs from the catalog" prog m
            | None -> Round.check errors false "%s/%s: not explored" prog m)
          allowed;
        (match (get "sc", get "tso", get "armv8") with
         | Some sc, Some tso, Some arm ->
           Round.check errors
             (B.subset ~small:sc ~big:tso && B.subset ~small:tso ~big:arm)
             "%s: SC <= TSO <= ARMv8 fails" prog
         | _ -> ()))
    (List.sort_uniq compare progs);
  List.rev !errors

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
  { Round.empty with
    attempted = List.length inp.items;
    verify = (fun () -> (0, check_results inp.weak results));
    item_words = List.map snd results_words;
    counts =
      [ ("run.states",
         float_of_int (List.fold_left (fun n r -> n + states r) 0 results)) ] }

let workload = { Round.settle = false; setup; run; discard = ignore; extra = ignore }
