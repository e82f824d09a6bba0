(** Deterministic coverage signals (see .mli). *)

open Lang

type signal = string

(* Fixed caps: signal extraction must stay a small constant cost per
   unique program, independent of the campaign budget. *)
let core_cfg_cap = 1_000
let hw_state_cap = 1_000
let hw_size_gate = 10
let hw_machines = [ "sc"; "tso" ]

(* ------------------------------------------------------------------ *)
(* AST instruction-class n-grams                                       *)
(* ------------------------------------------------------------------ *)

let read_tok = function
  | Mode.Rna -> "ld.na"
  | Mode.Rrlx -> "ld.rlx"
  | Mode.Racq -> "ld.acq"

let write_tok = function
  | Mode.Wna -> "st.na"
  | Mode.Wrlx -> "st.rlx"
  | Mode.Wrel -> "st.rel"

let fence_tok = function
  | Mode.Facq -> "f.acq"
  | Mode.Frel -> "f.rel"
  | Mode.Facqrel -> "f.ar"
  | Mode.Fsc -> "f.sc"

(* Program-order token spine; structure contributes bracket tokens so a
   load inside a loop covers differently from the same load outside. *)
let rec tokens s k =
  match s with
  | Stmt.Skip -> k
  | Stmt.Assign _ -> "asn" :: k
  | Stmt.Load (_, m, _) -> read_tok m :: k
  | Stmt.Store (m, _, _) -> write_tok m :: k
  | Stmt.Cas _ -> "cas" :: k
  | Stmt.Fadd _ -> "fadd" :: k
  | Stmt.Fence m -> fence_tok m :: k
  | Stmt.Seq (a, b) -> tokens a (tokens b k)
  | Stmt.If (_, a, b) -> "if" :: tokens a ("else" :: tokens b ("fi" :: k))
  | Stmt.While (_, a) -> "do" :: tokens a ("od" :: k)
  | Stmt.Choose _ -> "choose" :: k
  | Stmt.Freeze _ -> "freeze" :: k
  | Stmt.Print _ -> "print" :: k
  | Stmt.Abort -> "abort" :: k
  | Stmt.Return _ -> "ret" :: k

let ast_signals p =
  let toks = tokens (Stmt.normalize p) [] in
  let uni = List.map (fun t -> "ast1:" ^ t) toks in
  let rec bi acc = function
    | a :: (b :: _ as rest) -> bi (("ast2:" ^ a ^ ">" ^ b) :: acc) rest
    | _ -> acc
  in
  List.sort_uniq String.compare (bi uni toks)

let is_ast s =
  String.length s >= 5
  &&
  let p = String.sub s 0 5 in
  p = "ast1:" || p = "ast2:"

(* ------------------------------------------------------------------ *)
(* packed state-space profiles                                         *)
(* ------------------------------------------------------------------ *)

let log2_bucket n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 (max 1 n)

let state_signals p =
  let p = Stmt.normalize p in
  let d = Domain.of_stmts [ p ] in
  match Seq_model.Core.create d with
  | exception Packed.Unpackable -> [ "core:unpackable" ]
  | core ->
    let root =
      Seq_model.Config.make ~perm:(Domain.na_set d) (Prog.init p)
    in
    let seen = Hashtbl.create 256 in
    let queue = Queue.create () in
    let acc = ref [] in
    let truncated = ref false in
    let root_id = Seq_model.Core.intern core root in
    Hashtbl.add seen root_id ();
    Queue.push root_id queue;
    while not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      acc :=
        Printf.sprintf "core:pw:%x/%x"
          (Seq_model.Core.perm_mask core id)
          (Seq_model.Core.written_mask core id)
        :: !acc;
      Array.iter
        (fun j ->
          if j >= 0 && not (Hashtbl.mem seen j) then
            if Hashtbl.length seen >= core_cfg_cap then truncated := true
            else begin
              Hashtbl.add seen j ();
              Queue.push j queue
            end)
        (Seq_model.Core.moves_next core id)
    done;
    let sigs =
      Printf.sprintf "core:size:%d" (log2_bucket (Hashtbl.length seen))
      :: !acc
    in
    List.sort_uniq String.compare
      (if !truncated then "core:trunc" :: sigs else sigs)

(* ------------------------------------------------------------------ *)
(* backend behavior digests                                            *)
(* ------------------------------------------------------------------ *)

let render_result (r : Backends.Backend.result) =
  let b = Buffer.create 128 in
  Backends.Backend.Behavior_set.iter
    (fun beh -> Buffer.add_string b (Fmt.str "%a;" Promising.Machine.pp_behavior beh))
    r.behaviors;
  Buffer.contents b

let behavior_signals p =
  let p = Stmt.normalize p in
  if Stmt.size p > hw_size_gate then []
  else begin
    let per_machine =
      List.filter_map
        (fun name ->
          match Backends.Registry.find name with
          | None -> None
          | Some (module M : Backends.Backend.MACHINE) ->
            let r = M.explore ~max_states:hw_state_cap [ p ] in
            let tag s = "hw:" ^ name ^ ":" ^ s in
            let sigs =
              (if r.truncated then [ tag "trunc" ]
               else
                 [ tag ("set:" ^ Fingerprint.digest_hex (render_result r)) ])
              @ (if r.races then [ tag "races" ] else [])
              @ [
                  tag
                    (Printf.sprintf "n:%d"
                       (log2_bucket
                          (Backends.Backend.Behavior_set.cardinal r.behaviors)));
                ]
            in
            Some (r, sigs))
        hw_machines
    in
    let diverge =
      match per_machine with
      | [ (a, _); (b, _) ]
        when (not a.truncated) && not b.truncated
             && not (Backends.Backend.Behavior_set.equal a.behaviors b.behaviors)
        -> [ "hw:diverge" ]
      | _ -> []
    in
    List.sort_uniq String.compare
      (diverge @ List.concat_map snd per_machine)
  end

let signals p =
  List.sort_uniq String.compare
    (ast_signals p @ state_signals p @ behavior_signals p)

(* ------------------------------------------------------------------ *)
(* the monotone seen-set                                               *)
(* ------------------------------------------------------------------ *)

type t = { seen : (signal, unit) Hashtbl.t }

let create () = { seen = Hashtbl.create 1024 }
let points t = Hashtbl.length t.seen
let mem t s = Hashtbl.mem t.seen s
let novel t sigs = List.filter (fun s -> not (Hashtbl.mem t.seen s)) sigs

let admit t sigs =
  List.fold_left
    (fun n s ->
      if Hashtbl.mem t.seen s then n
      else begin
        Hashtbl.add t.seen s ();
        n + 1
      end)
    0 sigs
