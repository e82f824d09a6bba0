(** seqd accept loop: select-multiplexed orchestrator, pool-dispatched
    evaluation, graceful drain (see .mli). *)

type config = {
  socket_path : string;
  tcp : (string * int) option;
  cache_dir : string option;
  mem_capacity : int;
  jobs : int;
  max_inflight : int;
  default_budget : Engine.Budget.spec;
}

let default_config ~socket_path =
  {
    socket_path;
    tcp = None;
    cache_dir = None;
    mem_capacity = 4096;
    jobs = 1;
    max_inflight = 8;
    default_budget = Engine.Budget.spec_unlimited;
  }

(* ------------------------------------------------------------------ *)
(* connections                                                         *)
(* ------------------------------------------------------------------ *)

(* Connections are keyed by a fresh integer id, never by fd: the kernel
   reuses fd numbers immediately, so a completion for a closed
   connection must not be deliverable to its fd's successor. *)
type conn = {
  cid : int;
  fd : Unix.file_descr;
  asm : Proto.Assembler.t;
  mutable evaluating : bool;  (* one request of this conn is on the pool *)
  mutable out : Bytes.t;  (* unflushed response bytes *)
  mutable out_pos : int;
}

let out_pending c = c.out_pos < Bytes.length c.out

(* The stop flag is set from a signal handler (same domain, but
   asynchronous) or by a [Shutdown] request on a worker domain: Atomic
   keeps both correct. *)
let serve_loop (config : config) (stop : bool Atomic.t) =
  let handler =
    Handler.create ?cache_dir:config.cache_dir
      ~mem_capacity:config.mem_capacity
      ~default_budget:config.default_budget ()
  in
  let metrics = Handler.metrics handler in
  let pool = Engine.Pool.create ~jobs:config.jobs ~dedicated:true () in
  let unix_addr = Addr.Unix_sock config.socket_path in
  let listeners =
    let unix_l = Addr.listen_fd unix_addr in
    match config.tcp with
    | None -> [ unix_l ]
    | Some (host, port) -> [ unix_l; Addr.listen_fd (Addr.Tcp (host, port)) ]
  in
  List.iter Unix.set_nonblock listeners;
  (* Self-pipe: worker completions (and signal handlers) write one byte
     to break the orchestrator out of [select]. *)
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let wake () =
    try ignore (Unix.write wake_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
  in
  let completions : (int * Proto.response) Queue.t = Queue.create () in
  let completions_mutex = Mutex.create () in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_cid = ref 0 in
  let inflight = ref 0 in
  let draining = ref false in
  let listeners_open = ref true in
  let rdbuf = Bytes.create 65536 in
  let close_conn c =
    Hashtbl.remove conns c.cid;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  (* Queue a response and flush opportunistically (the common case: the
     whole frame fits in the socket buffer in one write). *)
  let flush c =
    match
      Unix.write c.fd c.out c.out_pos (Bytes.length c.out - c.out_pos)
    with
    | n -> c.out_pos <- c.out_pos + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> close_conn c
  in
  let respond c resp =
    c.out <-
      Bytes.of_string
        (Proto.Assembler.frame_bytes (Proto.encode_response resp));
    c.out_pos <- 0;
    flush c
  in
  (* Dispatch or answer the next fully-assembled request of [c], if any.
     Invariant: at most one request per connection is in flight, and the
     next frame is not decoded until the previous response has been
     flushed — responses on a connection are always in request order. *)
  let rec process_ready c =
    if (not c.evaluating) && not (out_pending c) then
      match Proto.Assembler.next c.asm with
      | None -> ()
      | Some payload ->
        (match Proto.decode_request payload with
         | exception Proto.Error msg ->
           respond c (Proto.Err ("protocol: " ^ msg))
         | Proto.Ping | Proto.Stats | Proto.Shutdown as req ->
           (* cheap control requests: answered inline on the
              orchestrator, never queued behind evaluations *)
           let resp = Handler.handle ~pool handler req in
           if resp = Proto.Bye then begin
             Atomic.set stop true;
             wake ()
           end;
           respond c resp
         | req ->
           if !draining || !inflight >= config.max_inflight then begin
             Engine.Metrics.incr metrics "req.busy";
             respond c Proto.Busy
           end
           else begin
             incr inflight;
             c.evaluating <- true;
             let cid = c.cid in
             Engine.Pool.submit pool (fun () ->
                 let resp = Handler.handle ~pool handler req in
                 Mutex.lock completions_mutex;
                 Queue.push (cid, resp) completions;
                 Mutex.unlock completions_mutex;
                 wake ())
           end);
        (* an inline answer may already be flushed: serve pipelined
           frames without waiting for another readiness event *)
        process_ready c
  in
  let accept lfd =
    match Unix.accept lfd with
    | fd, _ ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      let c =
        {
          cid = !next_cid;
          fd;
          asm = Proto.Assembler.create ();
          evaluating = false;
          out = Bytes.create 0;
          out_pos = 0;
        }
      in
      incr next_cid;
      Hashtbl.replace conns c.cid c
    | exception Unix.Unix_error _ -> ()
  in
  let read_conn c =
    match Unix.read c.fd rdbuf 0 (Bytes.length rdbuf) with
    | 0 -> close_conn c (* EOF; a pending completion is dropped later *)
    | n -> (
      match Proto.Assembler.feed c.asm rdbuf 0 n with
      | () -> process_ready c
      | exception Proto.Error _ ->
        (* framing violation: the stream is desynchronized beyond
           recovery, so the connection dies (clients reconnect) *)
        close_conn c)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> close_conn c
  in
  let drain_completions () =
    let batch =
      Mutex.lock completions_mutex;
      let q = Queue.copy completions in
      Queue.clear completions;
      Mutex.unlock completions_mutex;
      q
    in
    Queue.iter
      (fun (cid, resp) ->
        decr inflight;
        match Hashtbl.find_opt conns cid with
        | None -> () (* connection died while we evaluated *)
        | Some c ->
          c.evaluating <- false;
          respond c resp;
          if not (out_pending c) then process_ready c)
      batch
  in
  let close_listeners () =
    if !listeners_open then begin
      listeners_open := false;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        listeners
    end
  in
  let finished = ref false in
  while not !finished do
    drain_completions ();
    if Atomic.get stop then begin
      if not !draining then begin
        draining := true;
        close_listeners ()
      end;
      (* Drain: in-flight evaluations finish and their responses (and
         any partially-written ones) are flushed; idle connections are
         dropped. *)
      if !inflight = 0 then begin
        Hashtbl.fold
          (fun _ c acc -> if out_pending c then acc else c :: acc)
          conns []
        |> List.iter close_conn;
        if Hashtbl.length conns = 0 then finished := true
      end
    end;
    if not !finished then begin
      let reads =
        wake_r
        :: ((if !listeners_open then listeners else [])
           @ Hashtbl.fold
               (fun _ c acc ->
                 (* flow control: stop reading while a request is being
                    evaluated or a response is still flushing *)
                 if c.evaluating || out_pending c || !draining then acc
                 else c.fd :: acc)
               conns [])
      in
      let writes =
        Hashtbl.fold
          (fun _ c acc -> if out_pending c then c.fd :: acc else acc)
          conns []
      in
      match Unix.select reads writes [] 0.2 with
      | rs, ws, _ ->
        if List.mem wake_r rs then (
          try
            while Unix.read wake_r rdbuf 0 64 > 0 do
              ()
            done
          with Unix.Unix_error _ -> ());
        List.iter
          (fun fd ->
            match
              Hashtbl.fold
                (fun _ c acc -> if c.fd = fd then Some c else acc)
                conns None
            with
            | Some c ->
              flush c;
              if not (out_pending c) then process_ready c
            | None -> ())
          ws;
        List.iter
          (fun fd ->
            if fd <> wake_r then
              if !listeners_open && List.mem fd listeners then accept fd
              else
                match
                  Hashtbl.fold
                    (fun _ c acc -> if c.fd = fd then Some c else acc)
                    conns None
                with
                | Some c ->
                  if (not c.evaluating) && not (out_pending c) then
                    read_conn c
                | None -> ())
          rs
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  close_listeners ();
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  (try Unix.close wake_w with Unix.Unix_error _ -> ());
  Addr.unlink_if_unix unix_addr;
  Engine.Pool.shutdown pool

let run ?(signals = true) config =
  let stop = Atomic.make false in
  let previous = ref [] in
  if signals then
    List.iter
      (fun signum ->
        let old =
          Sys.signal signum
            (Sys.Signal_handle (fun _ -> Atomic.set stop true))
        in
        previous := (signum, old) :: !previous)
      [ Sys.sigint; Sys.sigterm ];
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (signum, old) -> Sys.set_signal signum old) !previous)
    (fun () -> serve_loop config stop)

(* ------------------------------------------------------------------ *)
(* in-process servers                                                  *)
(* ------------------------------------------------------------------ *)

type handle = {
  domain : unit Domain.t;
  hconfig : config;
  mutable stopped : bool;
}

let socket_ready path =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
    let ok =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    ok

let spawn ?(timeout_s = 10.0) config =
  let domain = Domain.spawn (fun () -> run ~signals:false config) in
  let deadline = Engine.Clock.now () +. timeout_s in
  let rec wait () =
    if socket_ready config.socket_path then ()
    else if Engine.Clock.now () > deadline then
      failwith
        (Printf.sprintf "seqd: socket %s not up after %.1fs"
           config.socket_path timeout_s)
    else begin
      Unix.sleepf 0.02;
      wait ()
    end
  in
  wait ();
  { domain; hconfig = config; stopped = false }

let stop handle =
  if not handle.stopped then begin
    handle.stopped <- true;
    (try
       Client.with_connection handle.hconfig.socket_path Client.shutdown
     with Unix.Unix_error _ | Proto.Error _ | Failure _ -> ());
    Domain.join handle.domain
  end
