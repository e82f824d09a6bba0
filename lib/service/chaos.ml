(** Seeded fault-injecting proxy for the seqd protocol (see .mli). *)

type fault =
  | Pass
  | Delay_ms of float
  | Drop_frame
  | Garble
  | Truncate
  | Duplicate
  | Kill

let fault_to_string = function
  | Pass -> "pass"
  | Delay_ms ms -> Printf.sprintf "delay(%.1fms)" ms
  | Drop_frame -> "drop"
  | Garble -> "garble"
  | Truncate -> "truncate"
  | Duplicate -> "duplicate"
  | Kill -> "kill"

type schedule = { seed : int; rate : float; max_delay_ms : float }

let schedule ?(rate = 0.25) ?(max_delay_ms = 5.) seed =
  { seed; rate = Float.max 0. (Float.min 1. rate); max_delay_ms }

(* The fault for frame [index] is a pure function of (seed, index) —
   the per-index stream idiom of {!Engine.Faults.seeded} — so a chaos
   run's fault sequence replays exactly no matter how the frames
   interleave in time. *)
let fault_at s index =
  let st = Random.State.make [| 0xca05; s.seed; index |] in
  if Random.State.float st 1.0 >= s.rate then Pass
  else
    match Random.State.int st 6 with
    | 0 -> Delay_ms (Random.State.float st (Float.max 0.1 s.max_delay_ms))
    | 1 -> Drop_frame
    | 2 -> Garble
    | 3 -> Truncate
    | 4 -> Duplicate
    | _ -> Kill

type counts = {
  frames : int;  (** complete frames seen (both directions) *)
  passed : int;
  delayed : int;
  dropped : int;
  garbled : int;
  truncated : int;
  duplicated : int;
  killed : int;
}

let injected c =
  c.delayed + c.dropped + c.garbled + c.truncated + c.duplicated + c.killed

(* ------------------------------------------------------------------ *)
(* the proxy                                                           *)
(* ------------------------------------------------------------------ *)

type dir = {
  src : Unix.file_descr;
  dst : Unix.file_descr;
  asm : Proto.Assembler.t;
}

type pconn = { client_fd : Unix.file_descr; up_fd : Unix.file_descr }

type t = {
  stopping : bool Atomic.t;
  domain : unit Domain.t;
  (* slots: frames passed delayed dropped garbled truncated duplicated
     killed *)
  tallies : int Atomic.t array;
}

let counts t =
  let g i = Atomic.get t.tallies.(i) in
  {
    frames = g 0;
    passed = g 1;
    delayed = g 2;
    dropped = g 3;
    garbled = g 4;
    truncated = g 5;
    duplicated = g 6;
    killed = g 7;
  }

exception Conn_dead

(* Blocking raw write on a nonblocking fd; any error kills the pair. *)
let send_raw fd bytes len =
  let pos = ref 0 in
  while !pos < len do
    match Unix.write fd bytes !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
      match Unix.select [] [ fd ] [] 1.0 with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error _ -> raise Conn_dead
  done

let send_frame fd payload =
  let s = Proto.Assembler.frame_bytes payload in
  send_raw fd (Bytes.of_string s) (String.length s)

let serve_proxy ~listen ~upstream ~sched stopping tallies =
  let t_frames = 0 and t_pass = 1 and t_delay = 2 and t_drop = 3 in
  let t_garble = 4 and t_trunc = 5 and t_dup = 6 and t_kill = 7 in
  let bump i = Atomic.incr tallies.(i) in
  let lfd = Addr.listen_fd listen in
  Unix.set_nonblock lfd;
  let conns : (pconn * dir * dir) list ref = ref [] in
  let frame_idx = ref 0 in
  let buf = Bytes.create 65536 in
  let close_pair pc =
    conns := List.filter (fun (c, _, _) -> c != pc) !conns;
    (try Unix.close pc.client_fd with Unix.Unix_error _ -> ());
    try Unix.close pc.up_fd with Unix.Unix_error _ -> ()
  in
  (* Forward one complete frame through the fault schedule.  Raises
     [Conn_dead] when the fault (or a write error) kills the pair. *)
  let forward d payload =
    let idx = !frame_idx in
    incr frame_idx;
    bump t_frames;
    match fault_at sched idx with
    | Pass ->
      bump t_pass;
      send_frame d.dst payload
    | Delay_ms ms ->
      bump t_delay;
      Unix.sleepf (ms /. 1000.);
      send_frame d.dst payload
    | Drop_frame ->
      (* the peer never sees it: the client's request deadline fires
         and the retry goes through a fresh connection *)
      bump t_drop
    | Garble ->
      bump t_garble;
      let wire = Bytes.of_string (Proto.Assembler.frame_bytes payload) in
      Bytes.set wire 0 'X';  (* magic violation: one deterministic error *)
      send_raw d.dst wire (Bytes.length wire)
    | Truncate ->
      bump t_trunc;
      let wire = Proto.Assembler.frame_bytes payload in
      let keep = min (String.length wire) (9 + (String.length payload / 2)) in
      send_raw d.dst (Bytes.of_string wire) keep;
      raise Conn_dead
    | Duplicate ->
      (* the protocol has no request ids, so a surviving duplicate would
         desynchronize request/response pairing; forwarding it twice and
         killing the pair exercises the client's stale-byte hygiene *)
      bump t_dup;
      send_frame d.dst payload;
      send_frame d.dst payload;
      raise Conn_dead
    | Kill ->
      (* a few bytes of a torn frame, then the connection dies
         mid-response *)
      bump t_kill;
      let wire = Proto.Assembler.frame_bytes payload in
      send_raw d.dst (Bytes.of_string wire) (min 9 (String.length wire));
      raise Conn_dead
  in
  let pump pc d =
    match Unix.read d.src buf 0 (Bytes.length buf) with
    | 0 -> close_pair pc
    | n -> (
      match
        Proto.Assembler.feed d.asm buf 0 n;
        let rec frames () =
          match Proto.Assembler.next d.asm with
          | Some payload ->
            forward d payload;
            frames ()
          | None -> ()
        in
        frames ()
      with
      | () -> ()
      | exception (Conn_dead | Proto.Error _) -> close_pair pc)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> close_pair pc
  in
  let accept () =
    match Unix.accept lfd with
    | cfd, _ -> (
      match Addr.connect_fd upstream with
      | ufd ->
        Unix.set_nonblock cfd;
        Unix.set_nonblock ufd;
        (try Unix.setsockopt cfd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let pc = { client_fd = cfd; up_fd = ufd } in
        let a2b = { src = cfd; dst = ufd; asm = Proto.Assembler.create () } in
        let b2a = { src = ufd; dst = cfd; asm = Proto.Assembler.create () } in
        conns := (pc, a2b, b2a) :: !conns
      | exception Unix.Unix_error _ ->
        (try Unix.close cfd with Unix.Unix_error _ -> ()))
    | exception Unix.Unix_error _ -> ()
  in
  while not (Atomic.get stopping) do
    let reads =
      lfd
      :: List.concat_map (fun (_, a2b, b2a) -> [ a2b.src; b2a.src ]) !conns
    in
    match Unix.select reads [] [] 0.1 with
    | rs, _, _ ->
      if List.mem lfd rs then accept ();
      (* snapshot: [pump] mutates [conns] on kill *)
      List.iter
        (fun (pc, a2b, b2a) ->
          if List.exists (fun (c, _, _) -> c == pc) !conns then begin
            if List.mem a2b.src rs then pump pc a2b;
            if List.exists (fun (c, _, _) -> c == pc) !conns
               && List.mem b2a.src rs
            then pump pc b2a
          end)
        !conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter (fun (pc, _, _) -> close_pair pc) !conns;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  Addr.unlink_if_unix listen

let start ~listen ~upstream sched =
  let stopping = Atomic.make false in
  let tallies = Array.init 8 (fun _ -> Atomic.make 0) in
  let domain =
    Domain.spawn (fun () ->
        serve_proxy ~listen ~upstream ~sched stopping tallies)
  in
  (* wait for the listener to come up *)
  let deadline = Engine.Clock.now () +. 10. in
  let rec wait () =
    match Addr.connect_fd listen with
    | fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ ->
      if Engine.Clock.now () > deadline then
        failwith "chaos proxy: listener never came up"
      else begin
        Unix.sleepf 0.02;
        wait ()
      end
  in
  wait ();
  { stopping; domain; tallies }

let stop t =
  if not (Atomic.get t.stopping) then begin
    Atomic.set t.stopping true;
    Domain.join t.domain
  end
