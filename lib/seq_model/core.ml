(** Fast enumeration core: SEQ transitions over interned configuration
    ids.

    A [Core.t] is a per-check context (like [Promising.Machine.memo]:
    one domain, one check, never shared across domains or concurrent
    workers).  A configuration ⟨σ, P, F, M⟩ is the packed quad
    (program id, permission mask, written mask, memory id), and every
    transition is computed on the quad:

    - each program id memoizes its {!Lang.Prog.step} shape and the ids
      of its successor programs (per read value, per update outcome);
    - acquire and release effects are mask and memory-id arithmetic
      over {!Lang.Packed}'s per-mask choice tables;
    - each distinct label and label list is interned once, so move
      lists share their [Event.t list]s.

    Three operations are memoized per configuration id: {!line_end}
    (the deterministic unlabeled advancement), the labeled moves
    ({!moves_labels}, {!moves_next}), and the acquire-free successors of
    the advanced game's suffixes ({!suffix}).  {!answer} plays the
    source side of a refinement game: it answers one target label from
    a source position by the same packed step.  No [Config.t] is built
    per move, line step or answer; {!cfg} decodes an id on demand.

    Fidelity: moves and lines decode to those of the set-based
    reference in the test-only [Seq_ref] library (labels, order and
    successors); test/test_diffcore.ml checks both on every reachable
    configuration of its samples, and verdicts and explored pair counts
    against its reference checkers.  The pair graph the games build over
    these ids is solved by {!Pair_graph}. *)

open Lang

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

module Prog_tbl = Hashtbl.Make (struct
  type t = Prog.state

  let equal = Prog.equal_state
  let hash = Prog.hash_state
end)

(* Successor program ids of a read or choice, by value id (-1 unknown). *)
type vnext = { f : Value.t -> Prog.state; mutable ids : int array }

(* Outcomes of an update, by read value id: -1 unknown, -2 fault, [2p] a
   failed update continuing as program [p], [2p + 1] a write of
   [news.(vid)] continuing as [p]. *)
type unext = {
  u : Value.t -> Prog.update_outcome;
  mutable codes : int array;
  mutable news : Value.t array;
}

(* {!Lang.Prog.shape} over program ids; non-atomic accesses carry the
   location's footprint index (-1 outside the footprint, never
   permitted) and a write its value id. *)
type shape =
  | S_term of Value.t
  | S_undef
  | S_silent of int
  | S_out of Value.t * int
  | S_choice of vnext
  | S_na_read of int * vnext
  | S_na_write of int * int * int
  | S_read of Mode.read * Loc.t * vnext  (* relaxed or acquire *)
  | S_write of Mode.write * Loc.t * Value.t * int  (* relaxed or release *)
  | S_update of Loc.t * unext
  | S_fence of Mode.fence * int

type line_end = L_term of Value.t | L_bot | L_diverge | L_label

type suffix = Sx_forbidden | Sx_term | Sx_branches of int array

type point =
  | No
  | Bot
  | Plain of int
  | Pend_rel of Event.rel_kind * int
  | Pend_acq of Event.acq_kind * int

type t = {
  d : Domain.t;
  pk : Packed.t;
  vals : int array;  (* value ids of [Domain.values_with_undef d] *)
  choose_vals : int array;  (* value ids of [d.values] *)
  loc_codes : (Loc.t, int) Hashtbl.t;
  prog_ids : int Prog_tbl.t;
  mutable prog_rev : Prog.state array;
  mutable prog_shape : shape option array;
  cfgs : Tuples.t;  (* (prog id, perm mask, written mask, mem id) *)
  (* per configuration id *)
  mutable line_ends : line_end array;
  mutable line_next : int array;  (* -2 not computed, -1 none *)
  mutable line_wmax : int array;
  mutable moves_lab : int array array;  (* label-list id per move *)
  mutable moves_next : int array array;  (* successor id per move, -1 ⊥ *)
  mutable suffixes : suffix option array;
  (* labels: (tag, loc code, value id, a, b, c, d), see [label] *)
  labs : Tuples.t;
  mutable lab_ev : Event.t array;
  mutable lab_vid : int array;
  mutable lab_pre : int array;
  mutable lab_post : int array;
  mutable lab_written : int array;
  mutable lab_env : int array;  (* acquire choice index, released mem id *)
  (* label lists: (first label, second label), -1 absent *)
  lists : Tuples.t;
  mutable list_evs : Event.t list array;
  mutable list_labs : int array array;
  (* move buffers of [compute_moves] *)
  mutable buf_lab : int array;
  mutable buf_next : int array;
  mutable nbuf : int;
}

let not_computed : int array = [| -3 |]

let grow_to a n fill =
  let g = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 g 0 (Array.length a);
  g

let create (d : Domain.t) : t =
  let pk = Packed.make d in
  let ids l = Array.of_list (List.map (Packed.value_id pk) l) in
  {
    d;
    pk;
    vals = ids (Domain.values_with_undef d);
    choose_vals = ids d.Domain.values;
    loc_codes = Hashtbl.create 8;
    prog_ids = Prog_tbl.create 64;
    prog_rev = [||];
    prog_shape = [||];
    cfgs = Tuples.create 4;
    line_ends = [||];
    line_next = [||];
    line_wmax = [||];
    moves_lab = [||];
    moves_next = [||];
    suffixes = [||];
    labs = Tuples.create 7;
    lab_ev = [||];
    lab_vid = [||];
    lab_pre = [||];
    lab_post = [||];
    lab_written = [||];
    lab_env = [||];
    lists = Tuples.create 2;
    list_evs = [||];
    list_labs = [||];
    buf_lab = Array.make 16 0;
    buf_next = Array.make 16 0;
    nbuf = 0;
  }

let packed t = t.pk
let cfg_count t = t.cfgs.Tuples.count

let prog_id t (st : Prog.state) : int =
  match Prog_tbl.find t.prog_ids st with
  | i -> i
  | exception Not_found ->
    let i = Prog_tbl.length t.prog_ids in
    if i >= Array.length t.prog_rev then begin
      t.prog_rev <- grow_to t.prog_rev (i + 16) st;
      t.prog_shape <- grow_to t.prog_shape (i + 16) None
    end;
    t.prog_rev.(i) <- st;
    Prog_tbl.add t.prog_ids st i;
    i

let loc_index t x =
  let locs = t.d.Domain.na_locs in
  let rec go i = function
    | [] -> -1
    | y :: rest -> if Loc.equal x y then i else go (i + 1) rest
  in
  go 0 locs

let vnext f = { f; ids = [||] }

let shape t p =
  match t.prog_shape.(p) with
  | Some s -> s
  | None ->
    let s =
      match Prog.step t.prog_rev.(p) with
      | Prog.Terminated v -> S_term v
      | Prog.Undefined -> S_undef
      | Prog.Silent st -> S_silent (prog_id t st)
      | Prog.Do_out (v, st) -> S_out (v, prog_id t st)
      | Prog.Choice f -> S_choice (vnext f)
      | Prog.Do_read (Mode.Rna, x, f) -> S_na_read (loc_index t x, vnext f)
      | Prog.Do_read (m, x, f) -> S_read (m, x, vnext f)
      | Prog.Do_write (Mode.Wna, x, v, st) ->
        S_na_write (loc_index t x, Packed.value_id t.pk v, prog_id t st)
      | Prog.Do_write (m, x, v, st) -> S_write (m, x, v, prog_id t st)
      | Prog.Do_update (x, u) ->
        S_update (x, { u; codes = [||]; news = [||] })
      | Prog.Do_fence (m, st) -> S_fence (m, prog_id t st)
    in
    t.prog_shape.(p) <- Some s;
    s

let succ t (r : vnext) vid =
  if vid < Array.length r.ids && r.ids.(vid) >= 0 then r.ids.(vid)
  else begin
    let p = prog_id t (r.f (Packed.value_of_id t.pk vid)) in
    if vid >= Array.length r.ids then r.ids <- grow_to r.ids (vid + 1) (-1);
    r.ids.(vid) <- p;
    p
  end

let update t (r : unext) vid =
  if vid < Array.length r.codes && r.codes.(vid) <> -1 then r.codes.(vid)
  else begin
    if vid >= Array.length r.codes then begin
      r.codes <- grow_to r.codes (vid + 1) (-1);
      r.news <- grow_to r.news (vid + 1) Value.Undef
    end;
    let c =
      match r.u (Packed.value_of_id t.pk vid) with
      | Prog.Upd_fault -> -2
      | Prog.Upd_read_only st -> 2 * prog_id t st
      | Prog.Upd_write (v, st) ->
        r.news.(vid) <- v;
        (2 * prog_id t st) + 1
    in
    r.codes.(vid) <- c;
    c
  end

(* ------------------------------------------------------------------ *)
(* Configurations                                                      *)
(* ------------------------------------------------------------------ *)

let prog_of t id = Tuples.get t.cfgs id 0
let perm_mask t id = Tuples.get t.cfgs id 1
let written_mask t id = Tuples.get t.cfgs id 2
let mem_id t id = Tuples.get t.cfgs id 3

(* Id of the quad, growing the per-configuration memos on a miss. *)
let cfg_id t p a w m : int =
  let key = t.cfgs.Tuples.key in
  key.(0) <- p;
  key.(1) <- a;
  key.(2) <- w;
  key.(3) <- m;
  let id = Tuples.intern t.cfgs in
  if id >= Array.length t.line_next then begin
    let n = id + 64 in
    t.line_ends <- grow_to t.line_ends n L_bot;
    t.line_next <- grow_to t.line_next n (-2);
    t.line_wmax <- grow_to t.line_wmax n 0;
    t.moves_lab <- grow_to t.moves_lab n not_computed;
    t.moves_next <- grow_to t.moves_next n not_computed;
    t.suffixes <- grow_to t.suffixes n None
  end;
  id

(** Intern a configuration.  @raise Lang.Packed.Unpackable when its
    permission or written set leaves the domain's non-atomic footprint
    (reachable configurations of packable roots never do — permissions
    only shrink on release and grow within the domain on acquire).

    A hit allocates at most {!Lang.Prog.equal_state}'s closure: the
    memory is packed into {!Lang.Packed}'s scratch key, the masks are
    computed without closures, and the quad is probed in place. *)
let intern t (cfg : Config.t) : int =
  let m = Packed.pack_mem t.pk cfg.Config.mem in
  let w = Packed.mask_of_set t.pk cfg.Config.written in
  let a = Packed.mask_of_set t.pk cfg.Config.perm in
  cfg_id t (prog_id t cfg.Config.prog) a w m

let cfg t id : Config.t =
  {
    Config.prog = t.prog_rev.(prog_of t id);
    perm = Packed.set_of_mask t.pk (perm_mask t id);
    written = Packed.set_of_mask t.pk (written_mask t id);
    mem = Packed.mem_of_id t.pk (mem_id t id);
  }

let status t id : Config.status =
  match shape t (prog_of t id) with
  | S_term v -> Config.Term v
  | _ -> Config.Running

let has a xi = xi >= 0 && a land (1 lsl xi) <> 0

(* The value a non-atomic read of location [xi] sees: the memory's value
   with the permission, [undef] (racy-na-read) without. *)
let na_read_vid t a m xi =
  if has a xi then Packed.mem_read_vid t.pk m xi
  else Packed.value_id t.pk Value.Undef

(** Pointwise [⊑] of two memory ids over the footprint (absent bindings
    read as 0). *)
let mem_le t m1 m2 =
  let ok = ref true in
  for i = 0 to Packed.nlocs t.pk - 1 do
    if not (Value.le (Packed.mem_read t.pk m1 i) (Packed.mem_read t.pk m2 i))
    then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* The unlabeled line                                                  *)
(* ------------------------------------------------------------------ *)

(* The unlabeled line on quads, with Brent's cycle detection instead of a set
   of visited configurations: one quad comparison against a checkpoint
   per step.  Output-identical: divergence is detected iff the
   deterministic step sequence is infinite, and every configuration on
   the cycle carries the same written set (the cycle repeats states,
   and F only grows), so the reported written mask coincides with the
   reference's first-revisit point.  Only the line's end is interned. *)
let compute_line t id =
  let finish e next w =
    t.line_ends.(id) <- e;
    t.line_next.(id) <- next;
    t.line_wmax.(id) <- w
  in
  let p = ref (prog_of t id)
  and a = ref (perm_mask t id)
  and w = ref (written_mask t id)
  and m = ref (mem_id t id) in
  let tp = ref !p and ta = ref !a and tw = ref !w and tm = ref !m in
  let power = ref 1 and lam = ref 0 and walking = ref true in
  while !walking do
    let stepped =
      match shape t !p with
      | S_term v ->
        finish (L_term v) (cfg_id t !p !a !w !m) !w;
        false
      | S_undef ->
        finish L_bot (-1) !w;
        false
      | S_silent p' ->
        p := p';
        true
      | S_na_read (xi, r) ->
        p := succ t r (na_read_vid t !a !m xi);
        true
      | S_na_write (xi, vid, p') ->
        if has !a xi then begin
          p := p';
          w := !w lor (1 lsl xi);
          m := Packed.mem_set t.pk !m xi vid;
          true
        end
        else begin
          finish L_bot (-1) !w;
          false
        end
      | S_choice _ | S_read _ | S_write _ | S_update _ | S_fence _ | S_out _
        ->
        finish L_label (cfg_id t !p !a !w !m) !w;
        false
    in
    if not stepped then walking := false
    else if !p = !tp && !a = !ta && !w = !tw && !m = !tm then begin
      finish L_diverge (-1) !w;
      walking := false
    end
    else begin
      incr lam;
      if !lam = !power then begin
        power := 2 * !power;
        lam := 0;
        tp := !p;
        ta := !a;
        tw := !w;
        tm := !m
      end
    end
  done

let force_line t id = if t.line_next.(id) = -2 then compute_line t id

(** How the line of [id] ends.  Memoized. *)
let line_end t id =
  force_line t id;
  t.line_ends.(id)

(** Id of the line's end configuration ([L_term]/[L_label]), or -1. *)
let line_next t id =
  force_line t id;
  t.line_next.(id)

(** Written mask at the line's end (its maximum: F grows along it). *)
let line_wmax_mask t id =
  force_line t id;
  t.line_wmax.(id)

(* ------------------------------------------------------------------ *)
(* Labels                                                              *)
(* ------------------------------------------------------------------ *)

let loc_code t x =
  match Hashtbl.find t.loc_codes x with
  | c -> c
  | exception Not_found ->
    let c = Hashtbl.length t.loc_codes in
    Hashtbl.add t.loc_codes x c;
    c

(* Label tags.  Acquire labels are [tag_acq + kind] and release labels
   [tag_rel + kind], with kinds numbered in {!Event}'s constructor order:
   0 read/write, 1 fence, 2 SC fence, 3 update. *)
let tag_choose = 0
let tag_rlx_read = 1
let tag_rlx_write = 2
let tag_out = 3
let tag_acq = 4
let tag_rel = 8

let value t vid = Packed.value_of_id t.pk vid
let set t m = Packed.set_of_mask t.pk m

(* The event of a label key, built once per distinct label. *)
let make_event t tag x vid a b c d : Event.t =
  let v = if vid > 0 then value t vid else Value.Undef in
  if tag = tag_choose then Event.Choose v
  else if tag = tag_rlx_read then Event.Rlx_read (x, v)
  else if tag = tag_rlx_write then Event.Rlx_write (x, v)
  else if tag = tag_out then Event.Out v
  else if tag < tag_rel then
    let apost, agained = Packed.acquire_choice t.pk a b in
    Event.Acq
      {
        Event.akind =
          (match tag - tag_acq with
           | 0 -> Event.Acq_read (x, v)
           | 1 -> Event.Acq_fence
           | 2 -> Event.Acq_fence_sc
           | _ -> Event.Acq_update (x, v));
        apre = set t a;
        apost;
        awritten = set t c;
        agained;
      }
  else
    Event.Rel
      {
        Event.rkind =
          (match tag - tag_rel with
           | 0 -> Event.Rel_write (x, v)
           | 1 -> Event.Rel_fence
           | 2 -> Event.Rel_fence_sc
           | _ -> Event.Rel_update (x, v));
        rpre = set t a;
        rpost = set t b;
        rwritten = set t c;
        rreleased = Packed.mem_of_id t.pk d;
      }

(* Id of the label keyed [(tag, x, vid, a, b, c, d)]: an acquire label
   by (P, choice index, F), a release label by (P, P', F, released
   memory id), the others by location and value.  Fences pass [""] for
   [x], which then stays out of the key. *)
let label t tag (x : Loc.t) vid a b c d =
  let key = t.labs.Tuples.key in
  key.(0) <- tag;
  key.(1) <- (if x = "" then -1 else loc_code t x);
  key.(2) <- vid;
  key.(3) <- a;
  key.(4) <- b;
  key.(5) <- c;
  key.(6) <- d;
  let id = Tuples.find t.labs in
  if id >= 0 then id
  else begin
    let ev = make_event t tag x vid a b c d in
    let id = Tuples.add t.labs id in
    if id >= Array.length t.lab_ev then begin
      t.lab_ev <- grow_to t.lab_ev (id + 16) ev;
      t.lab_vid <- grow_to t.lab_vid (id + 16) 0;
      t.lab_pre <- grow_to t.lab_pre (id + 16) 0;
      t.lab_post <- grow_to t.lab_post (id + 16) 0;
      t.lab_written <- grow_to t.lab_written (id + 16) 0;
      t.lab_env <- grow_to t.lab_env (id + 16) 0
    end;
    t.lab_ev.(id) <- ev;
    t.lab_vid.(id) <- vid;
    if tag >= tag_acq then begin
      let acq = tag < tag_rel in
      t.lab_pre.(id) <- a;
      t.lab_post.(id) <- (if acq then Packed.acquire_post t.pk a b else b);
      t.lab_written.(id) <- c;
      t.lab_env.(id) <- (if acq then b else d)
    end;
    id
  end

let lab_simple t tag x vid = label t tag x vid 0 0 0 0

let lab_acq t kind x vid ~pre ~k ~written =
  label t (tag_acq + kind) x vid pre k written 0

let lab_rel t kind x vid ~pre ~post ~written ~released =
  label t (tag_rel + kind) x vid pre post written released

(* Id of the label list [], [l1] or [l1; l2] (-1 for an absent label). *)
let list t l1 l2 =
  let key = t.lists.Tuples.key in
  key.(0) <- l1;
  key.(1) <- l2;
  let n = t.lists.Tuples.count in
  let id = Tuples.intern t.lists in
  if id = n then begin
    let labs =
      if l1 < 0 then [||] else if l2 < 0 then [| l1 |] else [| l1; l2 |]
    in
    let evs = Array.to_list (Array.map (fun l -> t.lab_ev.(l)) labs) in
    if id >= Array.length t.list_evs then begin
      t.list_evs <- grow_to t.list_evs (id + 16) evs;
      t.list_labs <- grow_to t.list_labs (id + 16) labs
    end;
    t.list_evs.(id) <- evs;
    t.list_labs.(id) <- labs
  end;
  id

(** The labels of a label-list id, shared by every move emitting them. *)
let labels t lid = t.list_evs.(lid)

(** The label ids of a label-list id. *)
let list_labels t lid = t.list_labs.(lid)

let label_written t l = t.lab_written.(l)
let is_acquire t l = match t.lab_ev.(l) with Event.Acq _ -> true | _ -> false
let is_release t l = match t.lab_ev.(l) with Event.Rel _ -> true | _ -> false

(** Locations of the release label [l]'s pre-release permissions whose
    released value is not ⊑ the value of configuration [id]'s memory
    there: the mismatch the simple game forbids and the advanced game
    turns into commitments. *)
let release_excess t l id =
  let rid = t.lab_env.(l) and m = mem_id t id in
  let acc = ref 0 in
  for i = 0 to Packed.nlocs t.pk - 1 do
    if t.lab_pre.(l) land (1 lsl i) <> 0
       && not
            (Value.le (Packed.mem_read t.pk rid i) (Packed.mem_read t.pk m i))
    then acc := !acc lor (1 lsl i)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Moves                                                               *)
(* ------------------------------------------------------------------ *)

let push t lid next =
  let n = t.nbuf in
  if n >= Array.length t.buf_lab then begin
    t.buf_lab <- grow_to t.buf_lab (n + 1) 0;
    t.buf_next <- grow_to t.buf_next (n + 1) 0
  end;
  t.buf_lab.(n) <- lid;
  t.buf_next.(n) <- next;
  t.nbuf <- n + 1

let empty_list t = list t (-1) (-1)

(* The acquire moves of one program step from (P, F, M): one per
   choice of [Domain.acquire_choices P], the labels' prefix [l0] (a
   release half, or -1) in front. *)
let acq_moves t ~l0 kind x vid p' a w m =
  for k = 0 to Packed.acquire_count t.pk a - 1 do
    let l = lab_acq t kind x vid ~pre:a ~k ~written:w in
    let lid = if l0 < 0 then list t l (-1) else list t l0 l in
    push t lid
      (cfg_id t p' (Packed.acquire_post t.pk a k) w
         (Packed.mem_acquire t.pk m a k))
  done

(* The release moves from (P, F, M), continuing as program [p']: the
   labels' prefix [l0] (an acquire half, or -1) in front. *)
let rel_moves t ~l0 kind x vid p' a w m =
  let released = Packed.mem_released t.pk m a in
  let posts = Packed.release_posts t.pk a in
  for j = 0 to Array.length posts - 1 do
    let post = posts.(j) in
    let l = lab_rel t kind x vid ~pre:a ~post ~written:w ~released in
    let lid = if l0 < 0 then list t l (-1) else list t l0 l in
    push t lid (cfg_id t p' post 0 m)
  done

(* All moves of the quad of [id], in the reference's order. *)
let compute_moves t id =
  let p = prog_of t id
  and a = perm_mask t id
  and w = written_mask t id
  and m = mem_id t id in
  t.nbuf <- 0;
  let nil = empty_list t in
  let simple tag x vid next =
    push t (list t (lab_simple t tag x vid) (-1)) next
  in
  (match shape t p with
   | S_term _ -> ()
   | S_undef -> push t nil (-1)
   | S_silent p' -> push t nil (cfg_id t p' a w m)
   | S_out (v, p') ->
     simple tag_out "" (Packed.value_id t.pk v) (cfg_id t p' a w m)
   | S_choice r ->
     Array.iter
       (fun vid -> simple tag_choose "" vid (cfg_id t (succ t r vid) a w m))
       t.choose_vals
   | S_na_read (xi, r) ->
     push t nil (cfg_id t (succ t r (na_read_vid t a m xi)) a w m)
   | S_read (Mode.Rrlx, x, r) ->
     Array.iter
       (fun vid -> simple tag_rlx_read x vid (cfg_id t (succ t r vid) a w m))
       t.vals
   | S_read (_, x, r) ->
     Array.iter
       (fun vid -> acq_moves t ~l0:(-1) 0 x vid (succ t r vid) a w m)
       t.vals
   | S_na_write (xi, vid, p') ->
     if has a xi then
       push t nil
         (cfg_id t p' a (w lor (1 lsl xi)) (Packed.mem_set t.pk m xi vid))
     else push t nil (-1)
   | S_write (Mode.Wrlx, x, v, p') ->
     simple tag_rlx_write x (Packed.value_id t.pk v) (cfg_id t p' a w m)
   | S_write (_, x, v, p') ->
     rel_moves t ~l0:(-1) 0 x (Packed.value_id t.pk v) p' a w m
   | S_fence (Mode.Facq, p') -> acq_moves t ~l0:(-1) 1 "" 0 p' a w m
   | S_fence (Mode.Frel, p') -> rel_moves t ~l0:(-1) 1 "" 0 p' a w m
   | S_fence (fm, p') ->
     (* release half then acquire half, atomically (two labels); an SC
        fence gets its own label kinds *)
     let kind = match fm with Mode.Fsc -> 2 | _ -> 1 in
     let released = Packed.mem_released t.pk m a in
     Array.iter
       (fun post ->
         let l0 = lab_rel t kind "" 0 ~pre:a ~post ~written:w ~released in
         acq_moves t ~l0 kind "" 0 p' post 0 m)
       (Packed.release_posts t.pk a)
   | S_update (x, r) ->
     (* acquire half: read any value, gain permissions; then the program
        decides; on success, release half *)
     Array.iter
       (fun vid ->
         for k = 0 to Packed.acquire_count t.pk a - 1 do
           let l0 = lab_acq t 3 x vid ~pre:a ~k ~written:w in
           let post = Packed.acquire_post t.pk a k in
           let m' = Packed.mem_acquire t.pk m a k in
           let c = update t r vid in
           if c = -2 then push t (list t l0 (-1)) (-1)
           else if c land 1 = 0 then
             push t (list t l0 (-1)) (cfg_id t (c lsr 1) post w m')
           else
             rel_moves t ~l0 3 x
               (Packed.value_id t.pk r.news.(vid))
               (c lsr 1) post w m'
         done)
       t.vals);
  let n = t.nbuf in
  t.moves_lab.(id) <- Array.sub t.buf_lab 0 n;
  t.moves_next.(id) <- Array.sub t.buf_next 0 n

let force_moves t id =
  if t.moves_next.(id) == not_computed then compute_moves t id

(** Label-list id of each move of [id] (decode with {!labels}). *)
let moves_labels t id =
  force_moves t id;
  t.moves_lab.(id)

(** Successor id of each move of [id], -1 for a move to ⊥. *)
let moves_next t id =
  force_moves t id;
  t.moves_next.(id)

(* ------------------------------------------------------------------ *)
(* Acquire-free successors                                             *)
(* ------------------------------------------------------------------ *)

(* The universal branching of a suffix in the advanced game: no acquire
   step is allowed, every environment choice (choose values, relaxed
   read values, release drops) is a branch, and ⊥ branches are dropped
   ([Sx_term] is the terminated case, an empty list of branches after
   dropping wins). *)
let compute_suffix t id =
  let p = prog_of t id
  and a = perm_mask t id
  and w = written_mask t id
  and m = mem_id t id in
  let one p' = Sx_branches [| cfg_id t p' a w m |] in
  let per vals r =
    Sx_branches (Array.map (fun vid -> cfg_id t (succ t r vid) a w m) vals)
  in
  let released p' =
    Sx_branches
      (Array.map
         (fun post -> cfg_id t p' post 0 m)
         (Packed.release_posts t.pk a))
  in
  match shape t p with
  | S_term _ -> Sx_term
  | S_undef -> Sx_branches [||]
  | S_silent p' | S_out (_, p') -> one p'
  | S_choice r -> per t.choose_vals r
  | S_na_read (xi, r) -> one (succ t r (na_read_vid t a m xi))
  | S_read (Mode.Rrlx, _, r) -> per t.vals r
  | S_read _ | S_update _ | S_fence ((Mode.Facq | Mode.Facqrel | Mode.Fsc), _)
    -> Sx_forbidden
  | S_na_write (xi, vid, p') ->
    if has a xi then
      Sx_branches
        [| cfg_id t p' a (w lor (1 lsl xi)) (Packed.mem_set t.pk m xi vid) |]
    else Sx_branches [||]
  | S_write (Mode.Wrlx, _, _, p') -> one p'
  | S_write (_, _, _, p') | S_fence (_, p') -> released p'

let suffix t id =
  match t.suffixes.(id) with
  | Some s -> s
  | None ->
    let s = compute_suffix t id in
    t.suffixes.(id) <- Some s;
    s

(* ------------------------------------------------------------------ *)
(* The source side of a refinement game                                *)
(* ------------------------------------------------------------------ *)

let point_id = function
  | Plain id | Pend_rel (_, id) | Pend_acq (_, id) -> id
  | No | Bot -> invalid_arg "Core.point_id"

(** The source at [pt] answers the target label [l] with a ⊑-greater
    label whose environment parts are copied from [l].  A [Plain] point
    must sit at a labeled step (a line end).  Checks the permission
    set, the label kinds and the values; the written-set and
    released-memory conditions differ between the games and are the
    caller's ({!label_written}, {!release_excess}).  [Bot]: the source
    emits the label and moves to ⊥; [Pend_*]: the source owes the second
    half of an RMW or an acquire-release fence. *)
(* The configuration continuing as program [p'] after the acquire label
   [l] from permissions [a], written set [w] and memory [m]. *)
let acquired t l p' a w m =
  cfg_id t p' t.lab_post.(l) w (Packed.mem_acquire t.pk m a t.lab_env.(l))

let answer t pt l : point =
  let open Event in
  match pt with
  | No | Bot -> pt
  | Plain sid ->
    let p = prog_of t sid
    and a = perm_mask t sid
    and w = written_mask t sid
    and m = mem_id t sid in
    (match t.lab_ev.(l), shape t p with
     | Choose _, S_choice r -> Plain (cfg_id t (succ t r t.lab_vid.(l)) a w m)
     | Rlx_read (x, _), S_read (Mode.Rrlx, y, r) when Loc.equal x y ->
       Plain (cfg_id t (succ t r t.lab_vid.(l)) a w m)
     | Rlx_write (x, vt), S_write (Mode.Wrlx, y, vs, p') when Loc.equal x y ->
       if Value.le vt vs then Plain (cfg_id t p' a w m) else No
     | Out vt, S_out (vs, p') ->
       if Value.le vt vs then Plain (cfg_id t p' a w m) else No
     | Acq ev, sh ->
       if t.lab_pre.(l) <> a then No
       else (
         match ev.akind, sh with
         | Acq_read (x, _), S_read (Mode.Racq, y, r) when Loc.equal x y ->
           Plain (acquired t l (succ t r t.lab_vid.(l)) a w m)
         | Acq_fence, S_fence (Mode.Facq, p') -> Plain (acquired t l p' a w m)
         | Acq_update (x, _), S_update (y, r) when Loc.equal x y ->
           let vid = t.lab_vid.(l) in
           let c = update t r vid in
           if c = -2 then Bot
           else if c land 1 = 0 then Plain (acquired t l (c lsr 1) a w m)
           else
             Pend_rel
               (Rel_update (x, r.news.(vid)), acquired t l (c lsr 1) a w m)
         | _, _ -> No)
     | Rel ev, sh ->
       if t.lab_pre.(l) <> a then No
       else
         let post = t.lab_post.(l) in
         (match ev.rkind, sh with
          | Rel_write (x, vt), S_write (Mode.Wrel, y, vs, p') when Loc.equal x y
            ->
            if Value.le vt vs then Plain (cfg_id t p' post 0 m) else No
          | Rel_fence, S_fence (Mode.Frel, p') -> Plain (cfg_id t p' post 0 m)
          | Rel_fence, S_fence (Mode.Facqrel, p') ->
            Pend_acq (Acq_fence, cfg_id t p' post 0 m)
          | Rel_fence_sc, S_fence (Mode.Fsc, p') ->
            Pend_acq (Acq_fence_sc, cfg_id t p' post 0 m)
          | _, _ -> No)
     | (Choose _ | Rlx_read _ | Rlx_write _ | Out _), _ -> No)
  | Pend_rel (skind, c) ->
    (match t.lab_ev.(l), skind with
     | Rel { rkind = Rel_update (x, vt); _ }, Rel_update (y, vs)
       when t.lab_pre.(l) = perm_mask t c && Loc.equal x y && Value.le vt vs ->
       Plain (cfg_id t (prog_of t c) t.lab_post.(l) 0 (mem_id t c))
     | _, _ -> No)
  | Pend_acq (k, c) ->
    (match t.lab_ev.(l) with
     | Acq ev
       when t.lab_pre.(l) = perm_mask t c
            && Event.compare_kinds_a ev.akind k = 0 ->
       Plain
         (acquired t l (prog_of t c) (perm_mask t c) (written_mask t c)
            (mem_id t c))
     | _ -> No)

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
