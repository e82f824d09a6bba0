(** The backend registry: every machine behind {!Backend.MACHINE}, by
    name (see registry.mli). *)

(* The SC explorer predates budgets: [budget] is checked up front (so an
   already-exhausted budget still stops immediately) and charged the
   whole exploration after the fact. *)
let sc_charged ~budget run =
  Engine.Budget.check budget;
  let r = run () in
  Engine.Budget.spend_state ~n:r.Baselines.Sc.states budget;
  r

let of_sc (r : Baselines.Sc.result) : Backend.result =
  {
    Backend.behaviors = r.Baselines.Sc.behaviors;
    races = r.Baselines.Sc.races;
    truncated = r.Baselines.Sc.truncated;
    states = r.Baselines.Sc.states;
  }

(** SC as a backend: {!Baselines.Sc} behind the shared signature. *)
module Sc_machine : Backend.MACHINE = struct
  let name = "sc"

  let explore ?values ?max_states ?(budget = Engine.Budget.unlimited) progs =
    of_sc
      (sc_charged ~budget (fun () ->
           Baselines.Sc.explore ?values ?max_states progs))
end

(** Catch-fire as a backend: the SC exploration, post-processed by
    {!Baselines.Catchfire.of_sc}. *)
module Catchfire_machine : Backend.MACHINE = struct
  let name = "catchfire"

  let explore ?values ?max_states ?(budget = Engine.Budget.unlimited) progs =
    let r =
      sc_charged ~budget (fun () ->
          Baselines.Sc.explore ?values ?max_states progs)
    in
    {
      (of_sc r) with
      Backend.behaviors =
        (Baselines.Catchfire.of_sc r).Baselines.Catchfire.behaviors;
    }
end

(** PS_na as a backend: {!Promising.Machine} behind the shared
    signature.  [values] selects nothing there (PS_na reads from
    messages, and [choose()] already ranges over the machine's fixed
    domain); [max_states] and [budget] are threaded through. *)
module Ps_machine : Backend.MACHINE = struct
  let name = "ps"

  let explore ?values:_ ?max_states ?budget progs =
    let params =
      match max_states with
      | None -> None
      | Some m -> Some { Promising.Thread.default_params with max_states = m }
    in
    let r = Promising.Machine.explore ?params ?budget progs in
    {
      Backend.behaviors = r.Promising.Machine.behaviors;
      races = r.Promising.Machine.races;
      truncated = r.Promising.Machine.truncated;
      states = r.Promising.Machine.states;
    }
end

module Tso_machine : Backend.MACHINE = Tso
module Armv8_machine : Backend.MACHINE = Armv8

let all : (module Backend.MACHINE) list =
  [
    (module Sc_machine);
    (module Catchfire_machine);
    (module Tso_machine);
    (module Armv8_machine);
    (module Ps_machine);
  ]

let names = List.map (fun (module M : Backend.MACHINE) -> M.name) all

let find name =
  List.find_opt (fun (module M : Backend.MACHINE) -> M.name = name) all
