(** Thread view triples, PS2-style (Lee et al. 2020), extending the
    paper's single-view fragment so that fences can be given their real
    semantics:

    - [cur]: the current view — constrains reads/writes and is what the
      race-helper judges against;
    - [acq]: the acquire view — additionally accumulates the views of
      messages read by relaxed reads; an acquire {e fence} promotes it
      into [cur];
    - [rel]: the fence-release view — published by a release {e fence};
      subsequent relaxed writes carry it, giving them release-write force
      (C11's fence synchronisation).

    Per-location release views (release sequences) are not modelled; see
    DESIGN.md. *)

type t = {
  cur : View.t;
  acq : View.t;
  rel : View.t;
}

(* Invariant: rel ⊑ cur ⊑ acq. *)

let bot = { cur = View.bot; acq = View.bot; rel = View.bot }

let compare a b =
  let c = View.compare a.cur b.cur in
  if c <> 0 then c
  else
    let c = View.compare a.acq b.acq in
    if c <> 0 then c else View.compare a.rel b.rel

let equal a b =
  a == b
  || View.equal a.cur b.cur && View.equal a.acq b.acq && View.equal a.rel b.rel

(* --- effects of the thread steps --- *)

(** A read of [x] at timestamp [t] whose message carries [mview].
    [sync] joins the message view into [cur] (acquire reads);
    [track] joins it into [acq] (all atomic reads, for later acquire
    fences) — non-atomic reads track nothing. *)
let read x t ~mview ~sync ~track (v : t) : t =
  let pt = View.singleton x t in
  let cur = View.join v.cur pt in
  let cur = if sync then View.join cur mview else cur in
  let acq = View.join v.acq pt in
  let acq = if track then View.join acq mview else acq in
  let acq = View.join acq cur in
  { v with cur; acq }

(** A write of [x] at timestamp [t]. *)
let write x t (v : t) : t =
  let pt = View.singleton x t in
  { v with cur = View.join v.cur pt; acq = View.join v.acq pt }

(** Acquire fence: promote the acquire view. *)
let acq_fence (v : t) : t = { v with cur = v.acq }

(** Release fence: publish the current view. *)
let rel_fence (v : t) : t = { v with rel = v.cur }

(** Degenerate triple for fence-free programs: the acq/rel components can
    never be observed, so collapsing them restores the single-view state
    space of the paper's fragment. *)
let collapse (v : t) : t = { cur = v.cur; acq = v.cur; rel = View.bot }

let pp ppf v =
  Fmt.pf ppf "cur=%a acq=%a rel=%a" View.pp v.cur View.pp v.acq View.pp v.rel
