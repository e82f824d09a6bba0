(** Messages (§5, Fig 5): concrete messages ⟨x@t, v, V⟩ and valueless
    non-atomic messages x@t ∈ NAMsg used for race detection.

    [attached] encodes RMW atomicity: an attached message sits immediately
    after its predecessor in its location's timeline, and nothing may ever
    be inserted between them (the point-timestamp rendering of PS's
    "from = previous to" adjacency). *)

open Lang

type payload =
  | Concrete of { value : Value.t; view : View.t }
  | Reserved  (** NAMsg: valueless, view ⊥ *)

type t = {
  loc : Loc.t;
  ts : Time.t;
  attached : bool;
  payload : payload;
}

let view m =
  match m.payload with
  | Concrete { view; _ } -> view
  | Reserved -> View.bot

let value m =
  match m.payload with
  | Concrete { value; _ } -> Some value
  | Reserved -> None

let is_concrete m = match m.payload with Concrete _ -> true | Reserved -> false
let is_reserved m = match m.payload with Reserved -> true | Concrete _ -> false

let compare_payload p1 p2 =
  match p1, p2 with
  | Reserved, Reserved -> 0
  | Reserved, Concrete _ -> -1
  | Concrete _, Reserved -> 1
  | Concrete c1, Concrete c2 ->
    let c = Value.compare c1.value c2.value in
    if c <> 0 then c else View.compare c1.view c2.view

let compare m1 m2 =
  let c = Loc.compare m1.loc m2.loc in
  if c <> 0 then c
  else
    let c = Time.compare m1.ts m2.ts in
    if c <> 0 then c
    else
      let c = Bool.compare m1.attached m2.attached in
      if c <> 0 then c else compare_payload m1.payload m2.payload

(* [==] first, then field by field with {!View.equal}: implies
   [compare m1 m2 = 0] without {!View.compare}'s filtered copies *)
let equal m1 m2 =
  m1 == m2
  || Loc.equal m1.loc m2.loc
     && Time.equal m1.ts m2.ts
     && Bool.equal m1.attached m2.attached
     &&
     match m1.payload, m2.payload with
     | Reserved, Reserved -> true
     | Concrete c1, Concrete c2 ->
       Value.equal c1.value c2.value && View.equal c1.view c2.view
     | Reserved, Concrete _ | Concrete _, Reserved -> false

let pp ppf m =
  match m.payload with
  | Concrete { value; view } ->
    Fmt.pf ppf "⟨%a@@%a%s,%a,%a⟩" Loc.pp m.loc Time.pp m.ts
      (if m.attached then "!" else "")
      Value.pp value View.pp view
  | Reserved ->
    Fmt.pf ppf "⟨%a@@%a%s⟩" Loc.pp m.loc Time.pp m.ts
      (if m.attached then "!" else "")
