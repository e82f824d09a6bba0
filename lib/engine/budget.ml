(** Cooperative resource budgets (see budget.mli).

    The hot-path contract: [check] must be cheap enough to sit inside a
    fixpoint exploration loop.  Unlimited budgets short-circuit before
    touching any mutable field (so the shared [unlimited] value is
    domain-safe); limited budgets pay one integer decrement per call and
    read the clock only every [poll_interval] calls.  The poll countdown
    starts at 0, so the very first [check] of an already-expired deadline
    raises — a 0 ms timeout is deterministic, not racy. *)

type reason = Deadline | States | Fuel

exception Exhausted of reason

let reason_to_string = function
  | Deadline -> "deadline"
  | States -> "states"
  | Fuel -> "fuel"

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)

let () =
  Printexc.register_printer (function
    | Exhausted r -> Some (Printf.sprintf "Engine.Budget.Exhausted(%s)" (reason_to_string r))
    | _ -> None)

type spec = {
  timeout_ms : float option;
  max_states : int option;
  max_fuel : int option;
}

let spec_unlimited = { timeout_ms = None; max_states = None; max_fuel = None }

let spec ?timeout_ms ?max_states ?fuel () =
  { timeout_ms; max_states; max_fuel = fuel }

let spec_is_unlimited s =
  s.timeout_ms = None && s.max_states = None && s.max_fuel = None

type t = {
  limited : bool;
  deadline : float;  (* absolute {!Clock.now} reading; infinity = none *)
  max_states : int;  (* max_int = none *)
  max_fuel : int;
  mutable states : int;
  mutable fuel : int;
  mutable poll : int;  (* countdown to the next clock read *)
}

let poll_interval = 256

let unlimited =
  {
    limited = false;
    deadline = infinity;
    max_states = max_int;
    max_fuel = max_int;
    states = 0;
    fuel = 0;
    poll = 0;
  }

let start (s : spec) : t =
  if spec_is_unlimited s then unlimited
  else
    {
      limited = true;
      deadline =
        (match s.timeout_ms with
         | None -> infinity
         | Some ms -> Clock.now () +. (ms /. 1000.));
      max_states = Option.value s.max_states ~default:max_int;
      max_fuel = Option.value s.max_fuel ~default:max_int;
      states = 0;
      fuel = 0;
      poll = 0;
    }

let make ?timeout_ms ?max_states ?fuel () =
  start (spec ?timeout_ms ?max_states ?fuel ())

let is_unlimited t = not t.limited

let check t =
  if t.limited && t.deadline < infinity then begin
    if t.poll <= 0 then begin
      t.poll <- poll_interval;
      (* [>=], not [>]: a 0 ms timeout sets the deadline to the current
         clock reading, and the first check may land on the same tick —
         an already-expired deadline must fire deterministically *)
      if Clock.now () >= t.deadline then raise (Exhausted Deadline)
    end
    else t.poll <- t.poll - 1
  end

let spend_state ?(n = 1) t =
  if t.limited then begin
    t.states <- t.states + n;
    if t.states > t.max_states then raise (Exhausted States);
    check t
  end

let spend_fuel ?(n = 1) t =
  if t.limited then begin
    t.fuel <- t.fuel + n;
    if t.fuel > t.max_fuel then raise (Exhausted Fuel);
    check t
  end

let states_used t = t.states
