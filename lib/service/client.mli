(** Client side of the seqd protocol: one connection, many requests,
    with a resilience layer.

    All requests on a connection are served in order by the daemon, so a
    corpus run streams through a single connection — either as many
    [Check] round-trips or, better, as one [Batch] frame the server
    sweeps in parallel over its engine pool.

    Resilience ({!policy}): bounded connect/request timeouts, and
    bounded retry with seeded exponential backoff + jitter
    ({!Engine.Faults.backoff_ms} — deterministic under test).  Verdict
    requests are pure functions of their payload, so re-sending one is
    always safe; [Shutdown] (an effect) and [Stats] (evolving state) are
    never retried.  A {!Proto.Busy} answer (admission gate) backs off on
    the same connection; a connection-level failure (reset, torn frame,
    timeout, stale bytes from a duplicated frame) closes the connection
    and retries on a fresh one, so a half-read response can never be
    paired with the next request.  The default policy makes one attempt
    with no timeouts — exactly the old behavior.

    {!request} is the raw exchange; the named helpers unwrap the
    expected response constructor and raise [Failure] on a server [Err],
    a final [Busy], or a constructor mismatch.  {!Proto.Error} (framing
    violation) and {!Timeout} escape once attempts are exhausted. *)

(** The request deadline expired. *)
exception Timeout

type policy = {
  attempts : int;  (** total tries per request (1 = no retry) *)
  base_delay_ms : float;  (** first backoff delay *)
  max_delay_ms : float;  (** backoff cap *)
  connect_timeout_ms : float option;
  request_timeout_ms : float option;  (** per-attempt response deadline *)
  seed : int;  (** backoff jitter stream *)
}

(** One attempt, no timeouts: the old blocking client. *)
val default_policy : policy

(** 8 attempts, 5ms..500ms backoff, 5s connect timeout. *)
val resilient_policy : policy

(** Cumulative per-connection resilience counters. *)
type counters = {
  retries : int;  (** re-attempts, any cause (includes busy) *)
  busy : int;  (** retries caused by {!Proto.Busy} *)
  reconnects : int;  (** fresh connections after a failure *)
}

(** One connection and its state, including one read buffer that every
    response on it reuses, across reconnects.  A [t] is not thread-safe:
    use it from one domain at a time (the protocol is strictly serialized
    anyway); give each concurrent caller its own connection. *)
type t

val counters : t -> counters

(** Connect to a daemon: a Unix socket path or ["tcp:HOST:PORT"]
    ({!Addr.of_string}).  Connection establishment itself honours the
    policy's attempts/backoff/connect-timeout.  @raise Unix.Unix_error
    if nothing listens there after the last attempt. *)
val connect : ?policy:policy -> string -> t

val close : t -> unit

(** [with_connection addr f]: connect, run [f], always close. *)
val with_connection : ?policy:policy -> string -> (t -> 'a) -> 'a

(** One frame out, one frame in, with the policy's retry/backoff
    discipline.  A final [Busy] is returned as-is. *)
val request : t -> Proto.request -> Proto.response

val ping : t -> bool

(** Check one refinement pair ([values = []] means the server default
    domain; [fast_path] defaults to [true]; [backend] defaults to
    {!Proto.default_backend}, i.e. the SEQ sequential refinement — a
    hardware backend name means behavior-set inclusion under that
    machine, cached under its own key). *)
val check :
  ?values:int list ->
  ?fast_path:bool ->
  ?backend:string ->
  ?budget:Proto.budget ->
  t ->
  src:string ->
  tgt:string ->
  unit ->
  Proto.check_result

(** Stream a list of checks as one frame; the server sweeps them in
    parallel and answers in input order. *)
val batch :
  ?budget:Proto.budget -> t -> Proto.check list -> Proto.check_result list

(** The daemon's metrics + cache-counter snapshot (never retried). *)
val stats : t -> string

(** Ask the daemon to drain and exit (never retried). *)
val shutdown : t -> unit
