(** Thread views: [Loc → Time], with the bottom view represented by the
    empty map (every location at timestamp 0, which is below every message
    — equivalent to the paper's distinguished ⊥ since timestamps are
    non-negative). *)

open Lang

type t = Time.t Loc.Map.t

let bot : t = Loc.Map.empty

let find x (v : t) = Loc.Map.find_default ~default:Time.zero x v

let is_bot (v : t) = Loc.Map.for_all (fun _ t -> Time.equal t Time.zero) v

let set x t (v : t) : t =
  if Time.equal t Time.zero then Loc.Map.remove x v else Loc.Map.add x t v

let singleton x t : t = set x t bot

let join (a : t) (b : t) : t =
  Loc.Map.union (fun _ t1 t2 -> Some (Time.max t1 t2)) a b

let le (a : t) (b : t) =
  Loc.Map.for_all (fun x t -> Time.le t (find x b)) a

let compare (a : t) (b : t) =
  (* compare canonically: zero entries never stored *)
  Loc.Map.compare Time.compare
    (Loc.Map.filter (fun _ t -> not (Time.equal t Time.zero)) a)
    (Loc.Map.filter (fun _ t -> not (Time.equal t Time.zero)) b)

(* Equality of the stored maps, [==] first, without [compare]'s
   filtered copies.  It implies [compare a b = 0]; the converse fails
   only for maps holding explicit zero entries, which no operation here
   stores. *)
let equal (a : t) (b : t) = a == b || Loc.Map.equal Time.equal a b

let pp ppf (v : t) = Loc.Map.pp Time.pp ppf v
