(** The one refinement check, and translation validation on top of it
    (see validate.mli for the evaluation order). *)

open Lang

type proof =
  | Static of Certify.cert
  | Static_abs of Certabs.cert
  | Enumerated

let provenance = function
  | Static _ -> Engine.Verdict.Static
  | Static_abs _ -> Engine.Verdict.Static_abs
  | Enumerated -> Engine.Verdict.Enumerated

type notion = Both | Advanced_only

type answer =
  | Refines_simple
  | Refines_advanced
  | Refuted
  | Undecided of string

type outcome = { answer : answer; proof : proof; pairs : int }

let seq_backend = "seq"

let undecided reason =
  { answer = Undecided reason; proof = Enumerated; pairs = 0 }

(* Behavior-set inclusion under a hardware machine (mixed access is
   tolerated, as by PS_na). *)
let hardware (module M : Backends.Backend.MACHINE) ~values ~budget ~src ~tgt =
  let r_src = M.explore ~values ?budget [ src ] in
  let r_tgt = M.explore ~values ?budget [ tgt ] in
  if r_src.Backends.Backend.truncated || r_tgt.Backends.Backend.truncated then
    undecided (M.name ^ ": truncated")
  else
    {
      answer =
        (if Backends.Backend.refines ~src:r_src ~tgt:r_tgt then Refines_simple
         else Refuted);
      proof = Enumerated;
      pairs = 0;
    }

(* The two games in Prop 3.4 order; [proved] means a static certificate
   has already settled the advanced notion. *)
let games ~values ~notion ~proved ~budget ~src ~tgt =
  let d = Domain.of_stmts ~values [ src; tgt ] in
  let simple, simple_pairs =
    match notion with
    | Both -> Seq_model.Refine.check_count ?budget d ~src ~tgt
    | Advanced_only -> (false, 0)
  in
  if simple then (Refines_simple, simple_pairs)
  else if proved then (Refines_advanced, simple_pairs)
  else
    let advanced, advanced_pairs =
      Seq_model.Advanced.check_count ?budget d ~src ~tgt
    in
    ( (if advanced then Refines_advanced else Refuted),
      simple_pairs + advanced_pairs )

let run ?(values = Domain.default_values) ?(backend = seq_backend)
    ?(notion = Both) ?(fast_path = true) ?passes ?budget ~(src : Stmt.t)
    ~(tgt : Stmt.t) () : outcome =
  if backend <> seq_backend then
    match Backends.Registry.find backend with
    | Some m -> hardware m ~values ~budget ~src ~tgt
    | None -> undecided (Printf.sprintf "unknown backend %S" backend)
  else
    let static =
      if not fast_path then None
      else
        match Certify.attempt ?passes ~src ~tgt () with
        | Some c -> Some (Static c)
        | None ->
          Option.map (fun c -> Static_abs c) (Certabs.attempt ~src ~tgt ())
    in
    let proof = Option.value static ~default:Enumerated in
    match (static, notion) with
    | Some _, Advanced_only -> { answer = Refines_advanced; proof; pairs = 0 }
    | _ -> (
      match games ~values ~notion ~proved:(static <> None) ~budget ~src ~tgt with
      | answer, pairs -> { answer; proof; pairs }
      | exception Packed.Unpackable ->
        undecided
          (Printf.sprintf "over %d non-atomic locations" Packed.max_locs))

let notions = function
  | Refines_simple -> (true, true)
  | Refines_advanced -> (false, true)
  | Refuted -> (false, false)
  | Undecided reason -> failwith reason

type verdict = { valid : bool; simple : bool; proof : proof }

exception Mixed_access = Seq_model.Config.Mixed_access

let validate ?values ?fast_path ?passes ?budget ~(src : Stmt.t)
    ~(tgt : Stmt.t) () : verdict =
  let o = run ?values ?fast_path ?passes ?budget ~src ~tgt () in
  let simple, valid = notions o.answer in
  { valid; simple; proof = o.proof }

let certified_optimize ?passes ?values ?fast_path ?budget (s : Stmt.t) :
    Driver.report * verdict =
  let report = Driver.optimize ?passes s in
  let v =
    validate ?values ?fast_path ?passes ?budget ~src:report.Driver.input
      ~tgt:report.Driver.output ()
  in
  (report, v)
