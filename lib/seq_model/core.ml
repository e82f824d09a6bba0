(** Fast enumeration core: hash-consed configurations and memoized
    transitions over a packed domain.

    A [Core.t] is a per-check context (like [Promising.Machine.memo]:
    one domain, one check, never shared across domains or concurrent
    workers).  It interns SEQ configurations into dense integer ids —
    program states by a custom hash table, the P/F/M components through
    {!Lang.Packed} masks and memory ids — and memoizes the two
    operations the refinement games thrash:

    - {!line}: the deterministic unlabeled advancement of a
      configuration.  In a simulation game the same configuration
      appears in many pairs (the pair space is close to a product of
      the two sides' state spaces), so each distinct line is now walked
      once instead of once per pair;
    - {!moves}: the full labeled transition enumeration (Fig 1), served
      through {!Config.moves_t} so the environment acquire/release
      choice lists also come from per-mask caches.

    Both memos return the {e very} values the uncached functions would:
    fidelity is locked by test/test_diffcore.ml, which checks verdicts
    {e and} explored pair counts against the set-based reference
    implementations ([Refine.Slow], [Advanced.Slow]).

    Interning runs once per configuration a game or enumeration reaches,
    so its hit path is kept nearly allocation-free (see {!intern}); the
    games themselves never re-intern a configuration whose id they hold
    (a line end is reached through {!line_next}).  The pair graph the
    games build over these ids is solved by {!Pair_graph}. *)

open Lang

module Prog_tbl = Hashtbl.Make (struct
  type t = Prog.state

  let equal = Prog.equal_state
  let hash = Prog.hash_state
end)

(* (prog id, perm mask, written mask, mem id) *)
module Cfg_tbl = Hashtbl.Make (struct
  type t = int * int * int * int

  let equal ((p, a, b, m) : t) ((p', a', b', m') : t) =
    p = p' && a = a' && b = b' && m = m'

  let hash = Hashtbl.hash
end)

type t = {
  d : Domain.t;
  tables : Config.tables;
  pk : Packed.t;
  prog_ids : int Prog_tbl.t;
  mutable prog_count : int;
  cfg_ids : int Cfg_tbl.t;
  mutable cfg_rev : Config.t array;  (* id -> first-interned representative *)
  mutable cfg_key : (int * int * int * int) array;  (* id -> packed quad *)
  mutable cfg_count : int;
  mutable line_memo : Config.line option array;
  mutable line_next : int array;
      (* id of the line's end configuration (L_term/L_label), -1 none *)
  mutable line_wmax : int array;  (* mask of the line's written_max *)
  mutable moves_memo : Config.move list option array;
  mutable moves_next : int array array;
      (* per move: id of the [Cont] successor, -1 for [Bot] *)
}

let dummy_key = (-1, -1, -1, -1)

let of_tables (tables : Config.tables) : t =
  let pk = tables.Config.packed in
  {
    d = Packed.domain pk;
    tables;
    pk;
    prog_ids = Prog_tbl.create 64;
    prog_count = 0;
    cfg_ids = Cfg_tbl.create 64;
    cfg_rev = Array.make 64 (Config.make (Prog.init Stmt.Skip));
    cfg_key = Array.make 64 dummy_key;
    cfg_count = 0;
    line_memo = Array.make 64 None;
    line_next = Array.make 64 (-1);
    line_wmax = Array.make 64 0;
    moves_memo = Array.make 64 None;
    moves_next = Array.make 64 [||];
  }

let create (d : Domain.t) : t option =
  match Config.make_tables d with
  | None -> None
  | Some tables -> Some (of_tables tables)

let domain t = t.d
let tables t = t.tables
let packed t = t.pk
let cfg_count t = t.cfg_count

let prog_id t (st : Prog.state) : int =
  match Prog_tbl.find t.prog_ids st with
  | i -> i
  | exception Not_found ->
    let i = t.prog_count in
    t.prog_count <- i + 1;
    Prog_tbl.add t.prog_ids st i;
    i

let grow t =
  let n = Array.length t.cfg_rev in
  let g = 2 * n in
  let rev = Array.make g t.cfg_rev.(0) in
  Array.blit t.cfg_rev 0 rev 0 n;
  t.cfg_rev <- rev;
  let key = Array.make g dummy_key in
  Array.blit t.cfg_key 0 key 0 n;
  t.cfg_key <- key;
  let lm = Array.make g None in
  Array.blit t.line_memo 0 lm 0 n;
  t.line_memo <- lm;
  let ln = Array.make g (-1) in
  Array.blit t.line_next 0 ln 0 n;
  t.line_next <- ln;
  let lw = Array.make g 0 in
  Array.blit t.line_wmax 0 lw 0 n;
  t.line_wmax <- lw;
  let mm = Array.make g None in
  Array.blit t.moves_memo 0 mm 0 n;
  t.moves_memo <- mm;
  let mn = Array.make g [||] in
  Array.blit t.moves_next 0 mn 0 n;
  t.moves_next <- mn

(** Intern a configuration.  @raise Lang.Packed.Unpackable when its
    permission or written set leaves the domain's non-atomic footprint
    (reachable configurations of packable roots never do — permissions
    only shrink on release and grow within the domain on acquire).

    A hit allocates only the probe quad and {!Lang.Prog.equal_state}'s
    closure: the memory is packed into {!Lang.Packed}'s scratch key, and
    the masks are computed without closures. *)
let intern t (cfg : Config.t) : int =
  let m = Packed.pack_mem t.pk cfg.Config.mem in
  let w = Packed.mask_of_set t.pk cfg.Config.written in
  let p = Packed.mask_of_set t.pk cfg.Config.perm in
  let key = (prog_id t cfg.Config.prog, p, w, m) in
  match Cfg_tbl.find t.cfg_ids key with
  | id -> id
  | exception Not_found ->
    let id = t.cfg_count in
    if id >= Array.length t.cfg_rev then grow t;
    t.cfg_rev.(id) <- cfg;
    t.cfg_key.(id) <- key;
    t.cfg_count <- id + 1;
    Cfg_tbl.add t.cfg_ids key id;
    id

let cfg t id = t.cfg_rev.(id)
let perm_mask t id = let _, p, _, _ = t.cfg_key.(id) in p
let written_mask t id = let _, _, w, _ = t.cfg_key.(id) in w
let mem_id t id = let _, _, _, m = t.cfg_key.(id) in m

(* [Config.line] with Brent's cycle detection instead of a [Set] of
   visited configurations: one comparison against a checkpointed
   configuration per step, rather than a set insertion plus membership
   test (each O(log n) structural comparisons).  Output-identical:
   divergence is detected iff the deterministic step sequence is
   infinite, and every configuration on the cycle carries the same
   written set (the cycle repeats states, and F only grows), so the
   reported [written_max] coincides with the reference's
   first-revisit point.  Equality with {!Config.line} is locked by
   test/test_diffcore.ml. *)
let line_walk (cfg0 : Config.t) : Config.line =
  let open Config in
  let power = ref 1 and lam = ref 0 in
  let tortoise = ref cfg0 in
  let rec go (cfg : Config.t) : Config.line =
    match Prog.step cfg.prog with
    | Prog.Terminated v ->
      { line_end = L_term (v, cfg); written_max = cfg.written }
    | Prog.Undefined -> { line_end = L_bot; written_max = cfg.written }
    | Prog.Choice _
    | Prog.Do_read ((Mode.Rrlx | Mode.Racq), _, _)
    | Prog.Do_write ((Mode.Wrlx | Mode.Wrel), _, _, _)
    | Prog.Do_update _ | Prog.Do_fence _ | Prog.Do_out _ ->
      { line_end = L_label cfg; written_max = cfg.written }
    | Prog.Silent p -> step { cfg with prog = p }
    | Prog.Do_read (Mode.Rna, x, f) ->
      let v =
        if Loc.Set.mem x cfg.perm then Config.read_mem cfg x else Value.Undef
      in
      step { cfg with prog = f v }
    | Prog.Do_write (Mode.Wna, x, v, p) ->
      if Loc.Set.mem x cfg.perm then
        step
          {
            cfg with
            prog = p;
            written = Loc.Set.add x cfg.written;
            mem = Loc.Map.add x v cfg.mem;
          }
      else { line_end = L_bot; written_max = cfg.written }
  and step (cfg' : Config.t) : Config.line =
    if Config.compare cfg' !tortoise = 0 then
      { line_end = L_diverge; written_max = cfg'.written }
    else begin
      incr lam;
      if !lam = !power then begin
        power := 2 * !power;
        lam := 0;
        tortoise := cfg'
      end;
      go cfg'
    end
  in
  go cfg0

let line_id t id : Config.line =
  match t.line_memo.(id) with
  | Some l -> l
  | None ->
    let l = line_walk t.cfg_rev.(id) in
    t.line_memo.(id) <- Some l;
    t.line_wmax.(id) <- Packed.mask_of_set t.pk l.Config.written_max;
    (match l.Config.line_end with
     | Config.L_term (_, c) | Config.L_label c ->
       let nid = intern t c in
       t.line_next.(id) <- nid
     | Config.L_bot | Config.L_diverge -> ());
    l

(** Interned id of the end configuration of [line_id t id] — the
    [L_term]/[L_label] configuration, or -1 for [L_bot]/[L_diverge].
    Only meaningful after [line_id t id] has been forced. *)
let line_next t id : int =
  (match t.line_memo.(id) with None -> ignore (line_id t id) | Some _ -> ());
  t.line_next.(id)

(** Mask of [written_max] of [line_id t id].  Forces the line memo. *)
let line_wmax_mask t id : int =
  (match t.line_memo.(id) with None -> ignore (line_id t id) | Some _ -> ());
  t.line_wmax.(id)

let line t cfg = line_id t (intern t cfg)

let moves_id t id : Config.move list =
  match t.moves_memo.(id) with
  | Some m -> m
  | None ->
    let m = Config.moves_t t.tables t.d t.cfg_rev.(id) in
    t.moves_memo.(id) <- Some m;
    let next =
      Array.of_list
        (List.map
           (function
             | _, Config.Bot -> -1
             | _, Config.Cont c -> intern t c)
           m)
    in
    t.moves_next.(id) <- next;
    m

(** Per-move successor ids for [moves_id t id]: the interned [Cont]
    configuration, or -1 for a [Bot] move.  Forces the moves memo. *)
let moves_next t id : int array =
  (match t.moves_memo.(id) with None -> ignore (moves_id t id) | Some _ -> ());
  t.moves_next.(id)

let moves t cfg = moves_id t (intern t cfg)

(* ------------------------------------------------------------------ *)
(* Symmetry reduction over initial environments                        *)
(* ------------------------------------------------------------------ *)

module Symmetry = struct
  (* Beyond this many non-atomic locations, n! permutations cost more
     than the orbits save. *)
  let max_locs = 5

  let rec permutations = function
    | [] -> [ [] ]
    | locs ->
      List.concat_map
        (fun x ->
          List.map
            (fun p -> x :: p)
            (permutations (List.filter (fun y -> not (Loc.equal x y)) locs)))
        locs

  (** Non-identity permutations of the domain's non-atomic locations that
      fix every given statement syntactically (up to {!Stmt.normalize}).
      Such a renaming is an automorphism of the whole transition system,
      so initial environments in the same orbit have isomorphic pair
      graphs and equal verdicts. *)
  let automorphisms (d : Domain.t) (stmts : Stmt.t list) :
      (Loc.t -> Loc.t) list =
    let na = d.Domain.na_locs in
    if List.length na < 2 || List.length na > max_locs then []
    else
      let norms = List.map Stmt.normalize stmts in
      let candidates =
        List.filter_map
          (fun perm ->
            if List.equal Loc.equal perm na then None (* identity *)
            else
              let assoc = List.combine na perm in
              Some (fun x -> try List.assoc x assoc with Not_found -> x))
          (permutations na)
      in
      List.filter
        (fun f ->
          List.for_all2
            (fun s n -> Stmt.normalize (Stmt.rename_locs f s) = n)
            stmts norms)
        candidates

  let rename_set f s =
    Loc.Set.fold (fun x acc -> Loc.Set.add (f x) acc) s Loc.Set.empty

  let rename_mem f m =
    Loc.Map.fold (fun x v acc -> Loc.Map.add (f x) v acc) m Loc.Map.empty

  (** Is [(perm, written, mem)] the minimum of its orbit under the given
      renamings?  Keeping only minimal environments explores one
      representative per orbit; verdicts are preserved, pair counts
      shrink (which is why symmetry reduction is opt-in — golden tables
      pin the unreduced counts). *)
  let minimal_env (autos : (Loc.t -> Loc.t) list) ~(perm : Loc.Set.t)
      ~(written : Loc.Set.t) ~(mem : Value.t Loc.Map.t) : bool =
    List.for_all
      (fun f ->
        let c = Loc.Set.compare (rename_set f perm) perm in
        if c <> 0 then c > 0
        else
          let c = Loc.Set.compare (rename_set f written) written in
          if c <> 0 then c > 0
          else Loc.Map.compare Value.compare (rename_mem f mem) mem >= 0)
      autos
end
