(** Oracles (Def 3.2): LTSs over stripped transition labels representing a
    possible concurrent environment.

    The advanced refinement checker ({!Advanced}) realizes the "for every
    oracle" quantification internally as a universal game, so oracles are
    not needed to {e decide} refinement; this module makes them concrete so
    that the definitions and the §3 counterexamples can be exercised
    directly in tests: one can build an oracle, check [tr ∈ Tr(Ω)], and
    exhibit the environment that defeats an unsound transformation.

    Oracles built by the combinators below satisfy the paper's two
    conditions by construction:
    - {e progress}: every label shape is enabled for some instantiation
      (the predicates only constrain, never empty, the allowed choices on
      environment-controlled components);
    - {e monotonicity}: if [e ⊑ e'] and [e] is allowed, so is [e']
      (predicates that hold on a value hold on [undef], checked by using
      [Value.le]-closed predicates). *)

open Lang

(** An oracle with existential internal state. *)
type t =
  | Oracle : {
      init : 's;
      step : 's -> Event.stripped -> 's option;
    }
      -> t

let step_trace (Oracle o) (tr : Event.t list) : bool =
  let rec go st = function
    | [] -> true
    | e :: rest ->
      (match o.step st (Event.strip e) with
       | Some st' -> go st' rest
       | None -> false)
  in
  go o.init tr

(** [tr ∈ Tr(Ω)]. *)
let allows = step_trace

(* ---- combinators ---- *)

(** The free oracle: allows everything (the "most permissive"
    environment). *)
let free : t = Oracle { init = (); step = (fun () _ -> Some ()) }

(** Constrain the values returned by relaxed/acquire reads of location [x]
    to satisfy [pred].  (Monotonicity imposes nothing here: the label order
    [⊑] of Def 2.3 relates {e write} values to [undef], but read labels
    only reflexively — an environment may well never offer [undef].) *)
let reads_satisfy (x : Loc.t) (pred : Value.t -> bool) : t =
  let ok v = pred v in
  Oracle
    {
      init = ();
      step =
        (fun () e ->
          match e with
          | Event.S_rlx_read (y, v) when Loc.equal x y ->
            if ok v then Some () else None
          | Event.S_acq (Event.Acq_read (y, v), _, _, _) when Loc.equal x y ->
            if ok v then Some () else None
          | _ -> Some ());
    }

(** An environment that never grants permissions (acquires gain nothing). *)
let no_permission_gain : t =
  Oracle
    {
      init = ();
      step =
        (fun () e ->
          match e with
          | Event.S_acq (_, pre, post, _) ->
            if Loc.Set.equal pre post then Some () else None
          | _ -> Some ());
    }

(** An environment that forces every release to drop all permissions. *)
let drop_all_on_release : t =
  Oracle
    {
      init = ();
      step =
        (fun () e ->
          match e with
          | Event.S_rel (_, _, post) ->
            if Loc.Set.is_empty post then Some () else None
          | _ -> Some ());
    }

(** Constrain [choose] resolutions to [pred]. *)
let chooses_satisfy (pred : Value.t -> bool) : t =
  Oracle
    {
      init = ();
      step =
        (fun () e ->
          match e with
          | Event.S_choose v -> if pred v then Some () else None
          | _ -> Some ());
    }

(** Intersection of two oracles (product LTS). *)
let both (Oracle a) (Oracle b) : t =
  Oracle
    {
      init = (a.init, b.init);
      step =
        (fun (sa, sb) e ->
          match a.step sa e, b.step sb e with
          | Some sa', Some sb' -> Some (sa', sb')
          | _, _ -> None);
    }
