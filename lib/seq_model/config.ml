(** SEQ configurations ⟨σ, P, F, M⟩.  Their transitions (Fig 1) are
    computed by {!Core} on interned ids. *)

open Lang

type t = {
  prog : Prog.state;
  perm : Loc.Set.t;       (** P — non-atomic locations we may safely access *)
  written : Loc.Set.t;    (** F — written since the last release *)
  mem : Value.t Loc.Map.t;  (** M — values of the non-atomic locations *)
}

let make ?(perm = Loc.Set.empty) ?(written = Loc.Set.empty)
    ?(mem = Loc.Map.empty) prog =
  { prog; perm; written; mem }

let compare a b =
  let c = Prog.compare_state a.prog b.prog in
  if c <> 0 then c
  else
    let c = Loc.Set.compare a.perm b.perm in
    if c <> 0 then c
    else
      let c = Loc.Set.compare a.written b.written in
      if c <> 0 then c
      else Loc.Map.compare Value.compare a.mem b.mem

let equal a b = compare a b = 0

(** Status of a configuration before taking any step. *)
type status =
  | Running
  | Term of Value.t  (** [σ = return(v)] *)

let status cfg =
  match Prog.step cfg.prog with
  | Prog.Terminated v -> Term v
  | _ -> Running

exception Mixed_access of Loc.t

let () =
  Printexc.register_printer (function
    | Mixed_access x ->
      Some
        (Printf.sprintf "mixed atomic/non-atomic access to %s" (Loc.name x))
    | _ -> None)

(** Check the SEQ well-formedness precondition: no location is accessed
    both atomically and non-atomically (§2, footnote 3). *)
let check_no_mixing (stmts : Stmt.t list) =
  List.iter
    (fun s ->
      match Loc.Set.choose_opt (Stmt.mixed_locations s) with
      | Some x -> raise (Mixed_access x)
      | None -> ())
    stmts

let pp ppf cfg =
  Fmt.pf ppf "@[<v>P=%a F=%a M=%a@ %a@]" Loc.Set.pp cfg.perm Loc.Set.pp
    cfg.written (Loc.Map.pp Value.pp) cfg.mem Prog.pp_state cfg.prog
