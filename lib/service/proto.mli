(** The seqd wire protocol: versioned, length-prefixed frames.

    One frame = a 9-byte header — the 4-byte magic ["SEQD"], a 1-byte
    protocol {!version}, a big-endian 4-byte payload length — followed by
    the payload, a tagged binary encoding of one {!request} or
    {!response}.  Programs travel as source text (parsed server-side), so
    the protocol has no OCaml-version coupling ([Marshal] is never used).

    Framing guarantees:
    - a magic or version mismatch raises {!Error} immediately — a v2
      client talking to a v1 server gets one deterministic error, never a
      mis-parse;
    - payloads larger than {!max_frame} are refused before allocation;
    - {!read_frame} returns [None] exactly on clean EOF at a frame
      boundary; EOF mid-frame raises {!Error}.

    The request/response encodings are self-describing enough for the
    cache: a cached response payload re-decodes with {!decode_response}
    and is re-tagged with the serving tier ({!with_tier}) before going
    back on the wire, preserving the original proof provenance. *)

(** Protocol (and cache payload) version. *)
val version : int

val magic : string

(** Maximum payload bytes accepted per frame. *)
val max_frame : int

(** Framing or codec violation (bad magic, version mismatch, truncated
    frame, unknown tag, oversized payload). *)
exception Error of string

(** Per-request budget; [None] fields are unlimited. *)
type budget = { timeout_ms : float option; max_states : int option }

val no_budget : budget

(** One refinement check: [values] is the finite domain (empty = the
    default domain), [fast_path] allows static certificates.  [backend]
    selects the memory model the check runs under: {!default_backend}
    (["seq"]) is the SEQ sequential refinement (Def 2.4 / Def 3.3); a
    registered hardware backend name (["sc"], ["tso"], ["armv8"],
    ["ps"], ...) means behavior-set inclusion under that machine —
    introduced with protocol version 3, keyed into the cache so verdicts
    never leak between backends. *)
type check = {
  src : string;
  tgt : string;
  values : int list;
  fast_path : bool;
  backend : string;
}

(** ["seq"] ({!Optimizer.Validate.seq_backend}), the classic
    sequential-refinement check. *)
val default_backend : string

type litmus_params = { promises : int; batch : int; lit_max_states : int }

type opt_req = { oprog : string; ovalues : int list; ofast_path : bool }
type lit_req = { lprog : string; lparams : litmus_params }

type request =
  | Ping
  | Check of check * budget
  | Batch of check list * budget  (** one connection, one parallel sweep *)
  | Lint of { prog : string; hints : bool }
  | Optimize of opt_req * budget
  | Litmus of lit_req * budget
  | Stats
  | Shutdown

(** Which cache tier served the answer. *)
type tier = Computed | Mem | Disk

val tier_to_string : tier -> string

(** How a definite verdict was originally established: the engine's
    provenance, preserved across cache tiers.  The wire tags are Static
    0, Enumerated 1 and Static_abs 2 (the abstract-interpretation
    certifier, introduced with protocol version 2). *)
type origin = Engine.Verdict.provenance = Static | Static_abs | Enumerated

val origin_to_string : origin -> string

type verdict =
  | Refines_simple  (** Def 2.4 holds (hence Def 3.3 too) *)
  | Refines_advanced  (** Def 3.3 holds, Def 2.4 does not *)
  | Refuted
  | Unknown of string  (** budget ran out / trapped failure: not cached *)

val verdict_to_string : verdict -> string

type check_result = {
  verdict : verdict;
  origin : origin option;  (** [None] iff the verdict is [Unknown] *)
  tier : tier;
  states : int;  (** budget states charged (0 when unlimited or cached) *)
}

(** Deterministic one-line rendering, e.g.
    ["REFINES(simple) via static [computed]"]. *)
val check_result_to_string : check_result -> string

type response =
  | Pong
  | Checked of check_result
  | Batched of check_result list
  | Linted of {
      errors : int;
      warnings : int;
      hints : int;
      rendered : string;
      tier : tier;
    }
  | Optimized of {
      output : string;  (** optimized program, parseable text *)
      result : check_result;  (** validation of the transformation *)
      passes : (string * int) list;  (** pass name, rewrites *)
    }
  | Litmus_result of {
      behaviors : string;
      states : int;
      races : bool;
      truncated : bool;
      tier : tier;
    }
  | Stats_result of string  (** {!Engine.Metrics.render} snapshot *)
  | Err of string
  | Busy  (** admission gate full; back off and resend the request *)
  | Bye  (** acknowledged [Shutdown]; the server drains and exits *)

(** Serving tier of a response, when it has one. *)
val response_tier : response -> tier option

(** Re-tag a response with the tier it is being served from (identity on
    responses without a tier).  Proof provenance ([origin]) is
    untouched. *)
val with_tier : response -> tier -> response

val encode_request : request -> string
val decode_request : string -> request
val encode_response : response -> string
val decode_response : string -> response

(** Write one frame (header + payload).  Loops until every byte is
    written: short writes are resumed, [EINTR] is retried, and [EAGAIN]
    on a nonblocking descriptor is waited out — a frame is never torn by
    a partial syscall.  @raise Error on oversized payloads. *)
val write_frame : Unix.file_descr -> string -> unit

(** Read one frame's payload, looping across partial reads and retrying
    [EINTR]/[EAGAIN] the same way.  [None] on clean EOF before any
    header byte.  @raise Error on bad magic/version/length or EOF
    mid-frame. *)
val read_frame : Unix.file_descr -> string option

(** Incremental frame reassembly for nonblocking readers (the
    select-multiplexed server and the chaos proxy): feed raw byte chunks
    as they arrive — half a header, three frames at once, anything —
    and pull complete payloads out in order. *)
module Assembler : sig
  type t

  val create : unit -> t

  (** Feed [len] bytes of [bytes] starting at [off].  @raise Error at
      the same byte [read_frame] would: bad magic, version mismatch, or
      an oversized length. *)
  val feed : t -> Bytes.t -> int -> int -> unit

  (** Next complete payload, in arrival order, if any. *)
  val next : t -> string option

  (** [true] iff EOF at this point would tear a frame (header or
      payload partially collected). *)
  val mid_frame : t -> bool

  (** A payload as raw wire bytes (header included) — what a proxy
      forwards verbatim. *)
  val frame_bytes : string -> string
end
