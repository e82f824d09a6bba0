(** The backend registry: the machine zoo behind one signature, by
    name.  CLI drivers validate [--backend] against {!names} (via
    {!Engine.Cliopts.validate_choice}) and dispatch via {!find}. *)

(** [sc_charged ~budget run] runs (or forces) an SC exploration the way
    {!Sc_machine} charges one: [budget] is checked before [run ()] and
    charged its [states] after.  The SC explorer itself takes no budget. *)
val sc_charged :
  budget:Engine.Budget.t -> (unit -> Baselines.Sc.result) -> Baselines.Sc.result

(** An SC result under the shared signature. *)
val of_sc : Baselines.Sc.result -> Backend.result

(** The SC baseline ({!Baselines.Sc}) behind the shared signature. *)
module Sc_machine : Backend.MACHINE

(** The catch-fire baseline: SC behaviors plus ⊥ whenever any
    interleaving races. *)
module Catchfire_machine : Backend.MACHINE

(** The paper's PS_na machine ({!Promising.Machine}). *)
module Ps_machine : Backend.MACHINE

module Tso_machine : Backend.MACHINE
module Armv8_machine : Backend.MACHINE

(** All machines, in strength order: ["sc"], ["catchfire"], ["tso"],
    ["armv8"], ["ps"]. *)
val all : (module Backend.MACHINE) list

(** The registered backend names, in {!all} order. *)
val names : string list

(** Look a machine up by its {!Backend.MACHINE.name}. *)
val find : string -> (module Backend.MACHINE) option
