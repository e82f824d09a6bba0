let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, (Clock.now () -. t0) *. 1000.)

type fastpath = { static_hits : int; static_abs_hits : int; enumerated : int }

let fastpath_zero = { static_hits = 0; static_abs_hits = 0; enumerated = 0 }

let add_fastpath a b =
  {
    static_hits = a.static_hits + b.static_hits;
    static_abs_hits = a.static_abs_hits + b.static_abs_hits;
    enumerated = a.enumerated + b.enumerated;
  }

let fastpath_static f = f.static_hits + f.static_abs_hits
let fastpath_total f = f.static_hits + f.static_abs_hits + f.enumerated

let fastpath_rate f =
  let total = fastpath_total f in
  if total = 0 then 0.
  else float_of_int (fastpath_static f) /. float_of_int total

let pp_fastpath ppf f =
  Format.fprintf ppf "static %d/%d (%.0f%%, %d replay + %d abstract)"
    (fastpath_static f) (fastpath_total f)
    (100. *. fastpath_rate f)
    f.static_hits f.static_abs_hits
