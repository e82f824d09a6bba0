(** seqd wire protocol: framing and tagged binary codec (see .mli). *)

let version = 3
let magic = "SEQD"
let max_frame = 16 * 1024 * 1024

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* primitive writers/readers                                           *)
(* ------------------------------------------------------------------ *)

let w_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let w_u32 buf n =
  if n < 0 || n > 0xffff_ffff then fail "u32 out of range: %d" n;
  w_u8 buf (n lsr 24);
  w_u8 buf (n lsr 16);
  w_u8 buf (n lsr 8);
  w_u8 buf n

let w_i64 buf n =
  let n = Int64.of_int n in
  for i = 7 downto 0 do
    w_u8 buf (Int64.to_int (Int64.shift_right_logical n (8 * i)) land 0xff)
  done

(* floats travel as their IEEE-754 bits, not via Int64.to_int (which
   would drop the top bit) *)
let w_float buf f =
  let bits = Int64.bits_of_float f in
  for i = 7 downto 0 do
    w_u8 buf (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
  done

let w_bool buf b = w_u8 buf (if b then 1 else 0)

let w_str buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

let w_list buf w xs =
  w_u32 buf (List.length xs);
  List.iter (w buf) xs

let w_option buf w = function
  | None -> w_u8 buf 0
  | Some x ->
    w_u8 buf 1;
    w buf x

type reader = { s : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.s then
    fail "truncated payload at byte %d (need %d of %d)" r.pos n
      (String.length r.s)

let r_u8 r =
  need r 1;
  let c = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_u32 r =
  let a = r_u8 r in
  let b = r_u8 r in
  let c = r_u8 r in
  let d = r_u8 r in
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let r_i64 r =
  let bits = ref 0L in
  for _ = 0 to 7 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (r_u8 r))
  done;
  !bits

let r_int r = Int64.to_int (r_i64 r)
let r_float r = Int64.float_of_bits (r_i64 r)

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> fail "bad bool tag %d" n

let r_str r =
  let n = r_u32 r in
  need r n;
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let r_list r f =
  let n = r_u32 r in
  if n > max_frame then fail "list length %d exceeds frame bound" n;
  List.init n (fun _ -> f r)

let r_option r f = match r_u8 r with 0 -> None | _ -> Some (f r)

let r_done r =
  if r.pos <> String.length r.s then
    fail "trailing bytes: %d of %d consumed" r.pos (String.length r.s)

(* ------------------------------------------------------------------ *)
(* protocol values                                                     *)
(* ------------------------------------------------------------------ *)

type budget = { timeout_ms : float option; max_states : int option }

let no_budget = { timeout_ms = None; max_states = None }

type check = {
  src : string;
  tgt : string;
  values : int list;
  fast_path : bool;
  backend : string;
}

let default_backend = Optimizer.Validate.seq_backend

type litmus_params = { promises : int; batch : int; lit_max_states : int }

type opt_req = { oprog : string; ovalues : int list; ofast_path : bool }
type lit_req = { lprog : string; lparams : litmus_params }

type request =
  | Ping
  | Check of check * budget
  | Batch of check list * budget
  | Lint of { prog : string; hints : bool }
  | Optimize of opt_req * budget
  | Litmus of lit_req * budget
  | Stats
  | Shutdown

type tier = Computed | Mem | Disk

let tier_to_string = function
  | Computed -> "computed"
  | Mem -> "mem"
  | Disk -> "disk"

type origin = Engine.Verdict.provenance = Static | Static_abs | Enumerated

let origin_to_string = Engine.Verdict.provenance_to_string

type verdict =
  | Refines_simple
  | Refines_advanced
  | Refuted
  | Unknown of string

let verdict_to_string = function
  | Refines_simple -> "REFINES(simple)"
  | Refines_advanced -> "REFINES(advanced)"
  | Refuted -> "REFUTED"
  | Unknown reason -> Printf.sprintf "UNKNOWN(%s)" reason

type check_result = {
  verdict : verdict;
  origin : origin option;
  tier : tier;
  states : int;
}

let check_result_to_string cr =
  Printf.sprintf "%s via %s [%s]"
    (verdict_to_string cr.verdict)
    (match cr.origin with Some o -> origin_to_string o | None -> "-")
    (tier_to_string cr.tier)

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
      output : string;
      result : check_result;
      passes : (string * int) list;
    }
  | Litmus_result of {
      behaviors : string;
      states : int;
      races : bool;
      truncated : bool;
      tier : tier;
    }
  | Stats_result of string
  | Err of string
  | Busy
  | Bye

let response_tier = function
  | Checked cr -> Some cr.tier
  | Batched _ -> None
  | Linted l -> Some l.tier
  | Optimized o -> Some o.result.tier
  | Litmus_result l -> Some l.tier
  | Pong | Stats_result _ | Err _ | Busy | Bye -> None

let with_tier resp tier =
  match resp with
  | Checked cr -> Checked { cr with tier }
  | Linted l -> Linted { l with tier }
  | Optimized o -> Optimized { o with result = { o.result with tier } }
  | Litmus_result l -> Litmus_result { l with tier }
  | Pong | Batched _ | Stats_result _ | Err _ | Busy | Bye -> resp

(* ------------------------------------------------------------------ *)
(* codec                                                               *)
(* ------------------------------------------------------------------ *)

let w_budget buf (b : budget) =
  w_option buf (fun buf f -> w_float buf f) b.timeout_ms;
  w_option buf w_i64 b.max_states

let r_budget r =
  let timeout_ms = r_option r r_float in
  let max_states = r_option r r_int in
  { timeout_ms; max_states }

let w_check buf (c : check) =
  w_str buf c.src;
  w_str buf c.tgt;
  w_list buf w_i64 c.values;
  w_bool buf c.fast_path;
  w_str buf c.backend

let r_check r =
  let src = r_str r in
  let tgt = r_str r in
  let values = r_list r r_int in
  let fast_path = r_bool r in
  let backend = r_str r in
  { src; tgt; values; fast_path; backend }

let encode_request req =
  let buf = Buffer.create 256 in
  (match req with
   | Ping -> w_u8 buf 0
   | Check (c, b) ->
     w_u8 buf 1;
     w_check buf c;
     w_budget buf b
   | Batch (cs, b) ->
     w_u8 buf 2;
     w_list buf w_check cs;
     w_budget buf b
   | Lint { prog; hints } ->
     w_u8 buf 3;
     w_str buf prog;
     w_bool buf hints
   | Optimize ({ oprog; ovalues; ofast_path }, b) ->
     w_u8 buf 4;
     w_str buf oprog;
     w_list buf w_i64 ovalues;
     w_bool buf ofast_path;
     w_budget buf b
   | Litmus ({ lprog; lparams }, b) ->
     w_u8 buf 5;
     w_str buf lprog;
     w_i64 buf lparams.promises;
     w_i64 buf lparams.batch;
     w_i64 buf lparams.lit_max_states;
     w_budget buf b
   | Stats -> w_u8 buf 6
   | Shutdown -> w_u8 buf 7);
  Buffer.contents buf

let decode_request s =
  let r = { s; pos = 0 } in
  let req =
    match r_u8 r with
    | 0 -> Ping
    | 1 ->
      let c = r_check r in
      let b = r_budget r in
      Check (c, b)
    | 2 ->
      let cs = r_list r r_check in
      let b = r_budget r in
      Batch (cs, b)
    | 3 ->
      let prog = r_str r in
      let hints = r_bool r in
      Lint { prog; hints }
    | 4 ->
      let oprog = r_str r in
      let ovalues = r_list r r_int in
      let ofast_path = r_bool r in
      let b = r_budget r in
      Optimize ({ oprog; ovalues; ofast_path }, b)
    | 5 ->
      let lprog = r_str r in
      let promises = r_int r in
      let batch = r_int r in
      let lit_max_states = r_int r in
      let b = r_budget r in
      Litmus ({ lprog; lparams = { promises; batch; lit_max_states } }, b)
    | 6 -> Stats
    | 7 -> Shutdown
    | n -> fail "unknown request tag %d" n
  in
  r_done r;
  req

let w_tier buf = function
  | Computed -> w_u8 buf 0
  | Mem -> w_u8 buf 1
  | Disk -> w_u8 buf 2

let r_tier r =
  match r_u8 r with
  | 0 -> Computed
  | 1 -> Mem
  | 2 -> Disk
  | n -> fail "unknown tier tag %d" n

let w_origin buf = function
  | Static -> w_u8 buf 0
  | Enumerated -> w_u8 buf 1
  | Static_abs -> w_u8 buf 2

let r_origin r =
  match r_u8 r with
  | 0 -> Static
  | 1 -> Enumerated
  | 2 -> Static_abs
  | n -> fail "unknown origin tag %d" n

let w_verdict buf = function
  | Refines_simple -> w_u8 buf 0
  | Refines_advanced -> w_u8 buf 1
  | Refuted -> w_u8 buf 2
  | Unknown reason ->
    w_u8 buf 3;
    w_str buf reason

let r_verdict r =
  match r_u8 r with
  | 0 -> Refines_simple
  | 1 -> Refines_advanced
  | 2 -> Refuted
  | 3 -> Unknown (r_str r)
  | n -> fail "unknown verdict tag %d" n

let w_check_result buf (cr : check_result) =
  w_verdict buf cr.verdict;
  w_option buf w_origin cr.origin;
  w_tier buf cr.tier;
  w_i64 buf cr.states

let r_check_result r =
  let verdict = r_verdict r in
  let origin = r_option r r_origin in
  let tier = r_tier r in
  let states = r_int r in
  { verdict; origin; tier; states }

let encode_response resp =
  let buf = Buffer.create 256 in
  (match resp with
   | Pong -> w_u8 buf 0
   | Checked cr ->
     w_u8 buf 1;
     w_check_result buf cr
   | Batched crs ->
     w_u8 buf 2;
     w_list buf w_check_result crs
   | Linted { errors; warnings; hints; rendered; tier } ->
     w_u8 buf 3;
     w_i64 buf errors;
     w_i64 buf warnings;
     w_i64 buf hints;
     w_str buf rendered;
     w_tier buf tier
   | Optimized { output; result; passes } ->
     w_u8 buf 4;
     w_str buf output;
     w_check_result buf result;
     w_list buf
       (fun buf (name, rewrites) ->
         w_str buf name;
         w_i64 buf rewrites)
       passes
   | Litmus_result { behaviors; states; races; truncated; tier } ->
     w_u8 buf 5;
     w_str buf behaviors;
     w_i64 buf states;
     w_bool buf races;
     w_bool buf truncated;
     w_tier buf tier
   | Stats_result s ->
     w_u8 buf 6;
     w_str buf s
   | Err msg ->
     w_u8 buf 7;
     w_str buf msg
   | Bye -> w_u8 buf 8
   | Busy -> w_u8 buf 9);
  Buffer.contents buf

let decode_response s =
  let r = { s; pos = 0 } in
  let resp =
    match r_u8 r with
    | 0 -> Pong
    | 1 -> Checked (r_check_result r)
    | 2 -> Batched (r_list r r_check_result)
    | 3 ->
      let errors = r_int r in
      let warnings = r_int r in
      let hints = r_int r in
      let rendered = r_str r in
      let tier = r_tier r in
      Linted { errors; warnings; hints; rendered; tier }
    | 4 ->
      let output = r_str r in
      let result = r_check_result r in
      let passes =
        r_list r (fun r ->
            let name = r_str r in
            let rewrites = r_int r in
            (name, rewrites))
      in
      Optimized { output; result; passes }
    | 5 ->
      let behaviors = r_str r in
      let states = r_int r in
      let races = r_bool r in
      let truncated = r_bool r in
      let tier = r_tier r in
      Litmus_result { behaviors; states; races; truncated; tier }
    | 6 -> Stats_result (r_str r)
    | 7 -> Err (r_str r)
    | 8 -> Bye
    | 9 -> Busy
    | n -> fail "unknown response tag %d" n
  in
  r_done r;
  resp

(* ------------------------------------------------------------------ *)
(* framing over a file descriptor                                      *)
(* ------------------------------------------------------------------ *)

(* The blocking framing helpers must behave identically whether a write
   or read completes in one syscall or many: a TCP segment boundary, a
   signal (EINTR), or a nonblocking descriptor (EAGAIN, waited out with
   [select]) must never tear a frame.  A partial syscall is therefore
   always resumed, never treated as completion. *)

let wait_fd ~for_write fd =
  match
    if for_write then Unix.select [] [ fd ] [] (-1.0)
    else Unix.select [ fd ] [] [] (-1.0)
  with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let rec write_all fd bytes pos len =
  if len > 0 then begin
    match Unix.write fd bytes pos len with
    | n -> write_all fd bytes (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes pos len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      wait_fd ~for_write:true fd;
      write_all fd bytes pos len
  end

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then fail "frame payload %d exceeds max %d" len max_frame;
  let buf = Buffer.create (9 + len) in
  Buffer.add_string buf magic;
  w_u8 buf version;
  w_u32 buf len;
  Buffer.add_string buf payload;
  let bytes = Buffer.to_bytes buf in
  write_all fd bytes 0 (Bytes.length bytes)

(* Read exactly [len] bytes; [eof_ok] permits EOF before the first
   byte (a clean connection close between frames). *)
let read_exactly ?(eof_ok = false) fd len =
  let bytes = Bytes.create len in
  let rec go pos =
    if pos >= len then Some bytes
    else
      match Unix.read fd bytes pos (len - pos) with
      | 0 ->
        if pos = 0 && eof_ok then None
        else fail "unexpected EOF after %d of %d bytes" pos len
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait_fd ~for_write:false fd;
        go pos
  in
  go 0

let header_len = 9

(* Validate a complete 9-byte header; returns the payload length. *)
let parse_header hdr =
  let m = Bytes.sub_string hdr 0 4 in
  if m <> magic then fail "bad magic %S (want %S)" m magic;
  let v = Char.code (Bytes.get hdr 4) in
  if v <> version then fail "protocol version mismatch: got %d, want %d" v version;
  let len =
    (Char.code (Bytes.get hdr 5) lsl 24)
    lor (Char.code (Bytes.get hdr 6) lsl 16)
    lor (Char.code (Bytes.get hdr 7) lsl 8)
    lor Char.code (Bytes.get hdr 8)
  in
  if len > max_frame then fail "frame payload %d exceeds max %d" len max_frame;
  len

let read_frame fd =
  match read_exactly ~eof_ok:true fd 4 with
  | None -> None
  | Some m ->
    let rest =
      match read_exactly fd (header_len - 4) with
      | Some b -> b
      | None -> assert false
    in
    let len = parse_header (Bytes.cat m rest) in
    (match read_exactly fd len with
     | Some payload -> Some (Bytes.to_string payload)
     | None -> assert false)

(* ------------------------------------------------------------------ *)
(* incremental frame assembly (nonblocking readers)                    *)
(* ------------------------------------------------------------------ *)

(* The select-multiplexed server (and the chaos proxy) read whatever the
   kernel has — possibly half a header, possibly three frames at once —
   and need frame boundaries restored without ever blocking.  An
   assembler is that state machine: feed it raw chunks, pull complete
   payloads.  Header violations raise {!Error} exactly as [read_frame]
   would, at the same byte. *)
module Assembler = struct
  type t = {
    hdr : Bytes.t;  (* the 9 header bytes being collected *)
    mutable hdr_got : int;
    mutable payload : Bytes.t option;  (* allocated once the header parses *)
    mutable got : int;  (* payload bytes collected *)
    ready : string Queue.t;
  }

  let create () =
    {
      hdr = Bytes.create header_len;
      hdr_got = 0;
      payload = None;
      got = 0;
      ready = Queue.create ();
    }

  let feed t bytes off len =
    let pos = ref off in
    let stop = off + len in
    while !pos < stop do
      match t.payload with
      | None ->
        let n = min (header_len - t.hdr_got) (stop - !pos) in
        Bytes.blit bytes !pos t.hdr t.hdr_got n;
        t.hdr_got <- t.hdr_got + n;
        pos := !pos + n;
        if t.hdr_got = header_len then begin
          let plen = parse_header t.hdr in
          t.payload <- Some (Bytes.create plen);
          t.got <- 0;
          (* a zero-length payload completes immediately *)
          if plen = 0 then begin
            Queue.push "" t.ready;
            t.payload <- None;
            t.hdr_got <- 0
          end
        end
      | Some p ->
        let n = min (Bytes.length p - t.got) (stop - !pos) in
        Bytes.blit bytes !pos p t.got n;
        t.got <- t.got + n;
        pos := !pos + n;
        if t.got = Bytes.length p then begin
          Queue.push (Bytes.to_string p) t.ready;
          t.payload <- None;
          t.hdr_got <- 0
        end
    done

  let next t = Queue.take_opt t.ready

  (* true iff EOF here would tear a frame *)
  let mid_frame t = t.hdr_got > 0 || t.payload <> None

  (* One frame as raw wire bytes (header + payload) — what a proxy
     forwards verbatim. *)
  let frame_bytes payload =
    let len = String.length payload in
    if len > max_frame then fail "frame payload %d exceeds max %d" len max_frame;
    let buf = Buffer.create (header_len + len) in
    Buffer.add_string buf magic;
    w_u8 buf version;
    w_u32 buf len;
    Buffer.add_string buf payload;
    Buffer.contents buf
end
