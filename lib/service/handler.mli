(** Request evaluation: the seqd semantics, independent of any socket.

    A handler owns the two-tier result {!Cache} and the {!Engine.Metrics}
    registry and maps one {!Proto.request} to one {!Proto.response}.  The
    {!Server} drives it from a Unix socket; tests and the bench harness
    drive it directly or through an in-process server.

    Caching discipline:
    - cache keys are {!Lang.Fingerprint.key} digests over the request
      kind, the {e canonical} program rendering, and every parameter the
      answer depends on (domain values, fast-path switch, litmus machine
      params including [max_states]) — never the budget;
    - only definite answers are stored ([Unknown]/[Err] results depend on
      the budget and are recomputed);
    - the cached payload is the encoded response with tier [Computed];
      on a hit it is re-tagged [Mem]/[Disk] ({!Proto.with_tier}), so the
      original proof provenance ([static]/[enumerated]) survives
      verbatim — a warm corpus answers with zero enumerations and still
      reports how each verdict was first established.

    [handle] never raises: parse failures and internal errors become
    [Err]/[Unknown] responses. *)

type t

(** [create ()]: [cache_dir = None] keeps the cache memory-only;
    [default_budget] (default unlimited) applies to requests that carry
    no budget of their own. *)
val create :
  ?cache_dir:string ->
  ?mem_capacity:int ->
  ?default_budget:Engine.Budget.spec ->
  unit ->
  t

val metrics : t -> Engine.Metrics.t
val cache : t -> Cache.t

(** Evaluate one request.  [pool] parallelizes [Batch] sweeps (absent:
    sequential); counters, latency reservoirs and the cache are updated
    as a side effect. *)
val handle : ?pool:Engine.Pool.t -> t -> Proto.request -> Proto.response

(** Metrics + cache counters, the payload of the [stats] RPC. *)
val stats_snapshot : t -> string

(** Translate a local {!Optimizer.Validate.run} outcome into the wire
    verdict and origin ([None] iff [Unknown]); exposed so tests can
    assert the server's answer is identical to a local run's. *)
val of_outcome :
  Optimizer.Validate.outcome -> Proto.verdict * Proto.origin option
