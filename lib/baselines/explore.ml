(** The one breadth-first explorer under the SC, TSO and ARMv8 machines
    (see explore.mli). *)

open Lang

module Behavior_set = Promising.Machine.Behavior_set

let set_nth l i v = List.mapi (fun j x -> if j = i then v else x) l

module type STEP = sig
  type state

  val compare : state -> state -> int
  val init : Stmt.t list -> state
  val progs : state -> Prog.state list
  val outs : state -> Value.t list list
  val drained : state -> bool

  val thread_steps :
    Value.t list -> state -> int -> [ `Next of state | `Ub ] list

  type race

  val no_race : race
  val observe : race -> state -> race
end

type 'race result = {
  behaviors : Behavior_set.t;
  races : 'race;
  truncated : bool;
  states : int;
}

module Make (S : STEP) = struct
  module Visited = Set.Make (struct
    type t = S.state

    let compare = S.compare
  end)

  (* Every thread has terminated and every buffer has drained. *)
  let terminal_behavior st =
    if not (S.drained st) then None
    else
      let rec go acc progs outs =
        match (progs, outs) with
        | [], [] -> Some (Promising.Machine.Ret (List.rev acc))
        | p :: ps, o :: os ->
          (match Prog.step p with
           | Prog.Terminated v -> go ((v, List.rev o) :: acc) ps os
           | _ -> None)
        | _ -> None
      in
      go [] (S.progs st) (S.outs st)

  let explore ?(values = Domain.default_values) ?(max_states = 200_000)
      ?(budget = Engine.Budget.unlimited) (progs : Stmt.t list) :
      S.race result =
    let n = List.length progs in
    let visited = ref Visited.empty in
    let n_visited = ref 0 in
    let behaviors = ref Behavior_set.empty in
    let races = ref S.no_race in
    let truncated = ref false in
    let queue = Queue.create () in
    let push st =
      if not (Visited.mem st !visited) then
        if !n_visited >= max_states then truncated := true
        else begin
          Engine.Budget.spend_state budget;
          visited := Visited.add st !visited;
          incr n_visited;
          Queue.push st queue
        end
    in
    push (S.init progs);
    while not (Queue.is_empty queue) do
      Engine.Budget.check budget;
      let st = Queue.pop queue in
      races := S.observe !races st;
      (match terminal_behavior st with
       | Some b -> behaviors := Behavior_set.add b !behaviors
       | None -> ());
      for tid = 0 to n - 1 do
        List.iter
          (function
            | `Ub ->
              behaviors := Behavior_set.add Promising.Machine.Bot !behaviors
            | `Next st' -> push st')
          (S.thread_steps values st tid)
      done
    done;
    {
      behaviors = !behaviors;
      races = !races;
      truncated = !truncated;
      states = !n_visited;
    }
end
