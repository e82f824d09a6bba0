(** Small-step labeled transition system for WHILE programs (§2, "Program
    representation in the paper").

    A program state [σ] is a continuation stack plus a register file.  Every
    non-terminal state offers exactly one {e action shape}; for reads and
    choices the successor is a function of the observed/chosen value.  This
    makes every WHILE program {e deterministic} in the sense of Def 6.1,
    which the adequacy theorem (Thm 6.2) requires. *)

type state = {
  cont : Stmt.t list;  (** continuation; the head is never [Seq] *)
  regs : Value.t Reg.Map.t;
  ret : Value.t option;
      (** [Some v] once a [return] has been evaluated: the state is
          [return(v)] in the paper's sense.  Evaluating [return e] is a
          silent step, so a partial behavior exists between a program's
          last action and its termination (cf. Example 2.2). *)
}

(* Flatten [Seq] so the continuation head is always an executable form. *)
let rec push (s : Stmt.t) (k : Stmt.t list) : Stmt.t list =
  match s with
  | Stmt.Seq (a, b) -> push a (push b k)
  | Stmt.Skip -> k
  | s -> s :: k

let init ?(regs = Reg.Map.empty) (s : Stmt.t) : state =
  { cont = push s []; regs; ret = None }

let compare_state (a : state) (b : state) =
  let c = Stdlib.compare a.cont b.cont in
  if c <> 0 then c
  else
    let c = Option.compare Value.compare a.ret b.ret in
    if c <> 0 then c else Reg.Map.compare Value.compare a.regs b.regs

(* Agrees with [compare_state a b = 0] without [Reg.Map.compare], which
   builds two enumerations per call: configuration interning runs this on
   every hit, and the only allocation is the [for_all] closure. *)
let equal_state (a : state) (b : state) =
  a == b
  || Stdlib.compare a.cont b.cont = 0
     && Option.equal Value.equal a.ret b.ret
     && Reg.Map.cardinal a.regs = Reg.Map.cardinal b.regs
     && Reg.Map.for_all
          (fun r v ->
            match Reg.Map.find r b.regs with
            | v' -> Value.equal v v'
            | exception Not_found -> false)
          a.regs

(* Continuations are plain constructor trees; the default shallow
   polymorphic hash discriminates well because two distinct remaining
   programs differ near the root, and hashing deep would walk the whole
   tree.  Collisions fall through to [equal_state], which also bails out
   near the root.  Register files are maps, whose tree shape is
   insertion-order dependent — fold in key order instead of hashing the
   tree. *)
let hash_state (st : state) =
  let h = Hashtbl.hash st.cont in
  let h =
    match st.ret with
    | None -> h
    | Some v -> (h * 31) + Value.hash v + 17
  in
  Reg.Map.fold
    (fun r v acc -> (((acc * 31) + Reg.hash r) * 31) + Value.hash v)
    st.regs h

let read_reg st r = Reg.Map.find_default ~default:Value.zero r st.regs
let write_reg st r v = { st with regs = Reg.Map.add r v st.regs }

(** Outcome of a successful atomic update, as a function of the read value. *)
type update_outcome =
  | Upd_fault  (** e.g. CAS comparison against [undef]: UB *)
  | Upd_write of Value.t * state
      (** exchange succeeded: write the value, continue *)
  | Upd_read_only of state
      (** failed CAS: behaves as an acquire read, no write *)

(** The unique action shape offered by a state. *)
type shape =
  | Terminated of Value.t
  | Undefined  (** the state steps to ⊥ (UB) *)
  | Silent of state
  | Choice of (Value.t -> state)
      (** [choose(v)] for every defined value [v] *)
  | Do_read of Mode.read * Loc.t * (Value.t -> state)
  | Do_write of Mode.write * Loc.t * Value.t * state
  | Do_update of Loc.t * (Value.t -> update_outcome)
      (** acquire-release RMW; the function consumes the read value *)
  | Do_fence of Mode.fence * state
  | Do_out of Value.t * state  (** system call: print *)

let step (st : state) : shape =
  match st.cont with
  | [] ->
    (match st.ret with
     | Some v -> Terminated v
     | None ->
       (* implicit return(0): also a silent step, so the state after the
          program's last action is still "running" (partial behaviors with
          the final written set exist, cf. Example 2.2) *)
       Silent { st with cont = []; ret = Some Value.zero })
  | s :: k ->
    (match s with
     | Stmt.Skip -> Silent { st with cont = k }
     | Stmt.Seq (a, b) -> Silent { st with cont = push a (push b k) }
     | Stmt.Abort -> Undefined
     | Stmt.Return e ->
       (match Expr.eval st.regs e with
        | Expr.Fault -> Undefined
        | Expr.Ok v -> Silent { st with cont = []; ret = Some v })
     | Stmt.Assign (r, e) ->
       (match Expr.eval st.regs e with
        | Expr.Fault -> Undefined
        | Expr.Ok v -> Silent (write_reg { st with cont = k } r v))
     | Stmt.If (e, a, b) ->
       (match Expr.eval st.regs e with
        | Expr.Fault -> Undefined
        | Expr.Ok v ->
          (match Value.to_bool v with
           | None -> Undefined (* branching on undef is UB (Remark 1) *)
           | Some true -> Silent { st with cont = push a k }
           | Some false -> Silent { st with cont = push b k }))
     | Stmt.While (e, body) ->
       (match Expr.eval st.regs e with
        | Expr.Fault -> Undefined
        | Expr.Ok v ->
          (match Value.to_bool v with
           | None -> Undefined
           | Some true -> Silent { st with cont = push body (s :: k) }
           | Some false -> Silent { st with cont = k }))
     | Stmt.Choose r ->
       Choice (fun v -> write_reg { st with cont = k } r v)
     | Stmt.Freeze (r, e) ->
       (match Expr.eval st.regs e with
        | Expr.Fault -> Undefined
        | Expr.Ok (Value.Int _ as v) -> Silent (write_reg { st with cont = k } r v)
        | Expr.Ok Value.Undef -> Choice (fun v -> write_reg { st with cont = k } r v))
     | Stmt.Load (r, m, x) ->
       Do_read (m, x, fun v -> write_reg { st with cont = k } r v)
     | Stmt.Store (m, x, e) ->
       (match Expr.eval st.regs e with
        | Expr.Fault -> Undefined
        | Expr.Ok v -> Do_write (m, x, v, { st with cont = k }))
     | Stmt.Cas (r, x, e_exp, e_new) ->
       (match Expr.eval st.regs e_exp, Expr.eval st.regs e_new with
        | Expr.Fault, _ | _, Expr.Fault -> Undefined
        | Expr.Ok v_exp, Expr.Ok v_new ->
          Do_update
            ( x,
              fun v_read ->
                match v_read, v_exp with
                | Value.Undef, _ | _, Value.Undef ->
                  (* comparing against undef is branching on undef: UB *)
                  Upd_fault
                | Value.Int a, Value.Int b ->
                  if a = b then
                    Upd_write (v_new, write_reg { st with cont = k } r Value.one)
                  else Upd_read_only (write_reg { st with cont = k } r Value.zero) ))
     | Stmt.Fadd (r, x, e) ->
       (match Expr.eval st.regs e with
        | Expr.Fault -> Undefined
        | Expr.Ok v_add ->
          Do_update
            ( x,
              fun v_read ->
                match Expr.apply_binop Expr.Add v_read v_add with
                | Expr.Fault -> Upd_fault
                | Expr.Ok v_new ->
                  Upd_write (v_new, write_reg { st with cont = k } r v_read) ))
     | Stmt.Fence m -> Do_fence (m, { st with cont = k })
     | Stmt.Print e ->
       (match Expr.eval st.regs e with
        | Expr.Fault -> Undefined
        | Expr.Ok v -> Do_out (v, { st with cont = k })))

(** Every WHILE program is deterministic by construction (Def 6.1): [step]
    returns a single shape, and distinct read/choice values lead to the
    branches (ii)/(iii) of the definition.  Exposed for documentation and
    tests. *)
let is_deterministic (_ : Stmt.t) = true

let pp_state ppf st =
  Fmt.pf ppf "@[<v>regs: %a ret: %a@ code: %a@]"
    (Reg.Map.pp Value.pp) st.regs
    (Fmt.option ~none:(Fmt.any "-") Value.pp) st.ret
    (Fmt.list ~sep:Fmt.semi Stmt.pp) st.cont
