(** seqd protocol client: timeouts, seeded backoff, retry (see .mli). *)

exception Timeout

let () =
  Printexc.register_printer (function
    | Timeout -> Some "Service.Client.Timeout"
    | _ -> None)

type policy = {
  attempts : int;
  base_delay_ms : float;
  max_delay_ms : float;
  connect_timeout_ms : float option;
  request_timeout_ms : float option;
  seed : int;
}

let default_policy =
  {
    attempts = 1;
    base_delay_ms = 10.;
    max_delay_ms = 1000.;
    connect_timeout_ms = None;
    request_timeout_ms = None;
    seed = 0;
  }

let resilient_policy =
  {
    attempts = 8;
    base_delay_ms = 5.;
    max_delay_ms = 500.;
    connect_timeout_ms = Some 5000.;
    request_timeout_ms = None;
    seed = 0;
  }

type counters = { retries : int; busy : int; reconnects : int }

type t = {
  addr : Addr.t;
  policy : policy;
  mutable fd : Unix.file_descr option;
  mutable retries : int;
  mutable busy : int;
  mutable reconnects : int;
}

let counters t = { retries = t.retries; busy = t.busy; reconnects = t.reconnects }

let backoff t ~attempt =
  let ms =
    Engine.Faults.backoff_ms ~seed:t.policy.seed
      ~base_ms:t.policy.base_delay_ms ~max_ms:t.policy.max_delay_ms ~attempt
  in
  if ms > 0. then Unix.sleepf (ms /. 1000.)

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
    t.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let open_fd t =
  let fd = Addr.connect_fd ?timeout_ms:t.policy.connect_timeout_ms t.addr in
  (* nonblocking + Assembler lets the response read honour a deadline;
     Proto.write_frame waits out EAGAIN itself *)
  Unix.set_nonblock fd;
  t.fd <- Some fd;
  fd

let readable_now fd =
  match Unix.select [ fd ] [] [] 0. with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* A usable descriptor for the next request.  The protocol is strictly
   serialized (one response per request, in order), so any readable byte
   {e before} a request is sent is stale — a duplicated frame injected by
   a fault, or a server teardown in progress.  Re-sending on such a
   connection could pair the new request with the stale response, so the
   connection is replaced instead. *)
let ensure_fd t =
  match t.fd with
  | None ->
    t.reconnects <- t.reconnects + 1;
    open_fd t
  | Some fd ->
    if readable_now fd then begin
      close t;
      t.reconnects <- t.reconnects + 1;
      open_fd t
    end
    else fd

let connect ?(policy = default_policy) addr =
  let t =
    {
      addr = Addr.of_string addr;
      policy;
      fd = None;
      retries = 0;
      busy = 0;
      reconnects = 0;
    }
  in
  let rec go attempt =
    match open_fd t with
    | _ -> t
    | exception Unix.Unix_error _ when attempt < policy.attempts ->
      t.retries <- t.retries + 1;
      backoff t ~attempt;
      go (attempt + 1)
  in
  go 1

let with_connection ?policy addr f =
  let t = connect ?policy addr in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* Read one response frame, honouring the policy's request deadline. *)
let read_response t fd =
  let deadline =
    Option.map
      (fun ms -> Engine.Clock.now () +. (ms /. 1000.))
      t.policy.request_timeout_ms
  in
  let asm = Proto.Assembler.create () in
  let buf = Bytes.create 65536 in
  let rec go () =
    match Proto.Assembler.next asm with
    | Some payload -> Proto.decode_response payload
    | None ->
      let wait =
        match deadline with
        | None -> -1.
        | Some d ->
          let left = d -. Engine.Clock.now () in
          if left <= 0. then raise Timeout else left
      in
      (match Unix.select [ fd ] [] [] wait with
       | [], _, _ -> if deadline <> None then raise Timeout else go ()
       | _ -> (
         match Unix.read fd buf 0 (Bytes.length buf) with
         | 0 -> raise (Proto.Error "connection closed before response")
         | n ->
           Proto.Assembler.feed asm buf 0 n;
           go ()
         | exception
             Unix.Unix_error
               ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
           -> go ())
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

(* Verdict requests are pure, so re-sending one is always safe.
   [Shutdown] is an effect and [Stats] reads evolving state: neither is
   retried. *)
let retryable : Proto.request -> bool = function
  | Proto.Shutdown | Proto.Stats -> false
  | _ -> true

let request t req =
  let can_retry = retryable req && t.policy.attempts > 1 in
  let rec attempt n =
    match
      let fd = ensure_fd t in
      Proto.write_frame fd (Proto.encode_request req);
      read_response t fd
    with
    | Proto.Busy when can_retry && n < t.policy.attempts ->
      (* admission gate: the connection is fine, just back off *)
      t.busy <- t.busy + 1;
      t.retries <- t.retries + 1;
      backoff t ~attempt:n;
      attempt (n + 1)
    | resp -> resp
    | exception ((Unix.Unix_error _ | Proto.Error _ | Timeout) as e) ->
      close t;
      if can_retry && n < t.policy.attempts then begin
        t.retries <- t.retries + 1;
        backoff t ~attempt:n;
        attempt (n + 1)
      end
      else raise e
  in
  attempt 1

let ping t = match request t Proto.Ping with Proto.Pong -> true | _ -> false

let unexpected what = function
  | Proto.Err msg -> failwith (Printf.sprintf "server error: %s" msg)
  | Proto.Busy -> failwith (Printf.sprintf "server busy (gave up on %s)" what)
  | _ -> failwith (Printf.sprintf "unexpected response to %s" what)

let check ?(values = []) ?(fast_path = true)
    ?(backend = Proto.default_backend) ?(budget = Proto.no_budget) t ~src ~tgt
    () =
  match
    request t (Proto.Check ({ src; tgt; values; fast_path; backend }, budget))
  with
  | Proto.Checked cr -> cr
  | resp -> unexpected "check" resp

let batch ?(budget = Proto.no_budget) t checks =
  match request t (Proto.Batch (checks, budget)) with
  | Proto.Batched crs -> crs
  | resp -> unexpected "batch" resp

let stats t =
  match request t Proto.Stats with
  | Proto.Stats_result s -> s
  | resp -> unexpected "stats" resp

let shutdown t =
  match request t Proto.Shutdown with
  | Proto.Bye -> ()
  | resp -> unexpected "shutdown" resp
