(** Service endpoint addresses: Unix socket or TCP (see .mli). *)

type t = Unix_sock of string | Tcp of string * int

let fail fmt = Printf.ksprintf failwith fmt

let parse_hostport s =
  match String.rindex_opt s ':' with
  | None -> fail "bad HOST:PORT %S (no colon)" s
  | Some i ->
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    let host = if host = "" then "127.0.0.1" else host in
    (match int_of_string_opt port with
     | Some p when p > 0 && p < 65536 -> Tcp (host, p)
     | _ -> fail "bad port %S in %S" port s)

let of_string s =
  let tcp_prefix = "tcp:" in
  let plen = String.length tcp_prefix in
  if String.length s > plen && String.sub s 0 plen = tcp_prefix then
    parse_hostport (String.sub s plen (String.length s - plen))
  else Unix_sock s

let to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ ->
    (match Unix.gethostbyname host with
     | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
     | _ | (exception Not_found) -> fail "cannot resolve host %S" host)

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (resolve host, port)

let domain_of = function
  | Unix_sock _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

(* A peer (or a fault-injecting proxy) may vanish between our poll and
   our write; with the default disposition that write would kill the
   whole process with SIGPIPE.  Ignoring it turns the write into an
   [EPIPE] {!Unix.Unix_error}, which every caller already treats as a
   dead connection.  Set lazily at the two chokepoints every socket in
   this library passes through ({!listen_fd}, {!connect_fd}), so any
   binary that serves or dials is covered. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> () (* no SIGPIPE on this platform *))

(* Small-frame request/response traffic: Nagle only adds latency. *)
let set_nodelay addr fd =
  match addr with
  | Tcp _ ->
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | Unix_sock _ -> ()

let listen_fd ?(backlog = 64) addr =
  Lazy.force ignore_sigpipe;
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (match
     (match addr with
      | Unix_sock path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
     Unix.bind fd (sockaddr addr);
     Unix.listen fd backlog
   with
   | () -> ()
   | exception e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

(* Nonblocking connect + select + SO_ERROR: the only portable way to
   bound connection establishment. *)
let connect_timeout fd sa timeout_ms =
  Unix.set_nonblock fd;
  let finish_blocking () = Unix.clear_nonblock fd in
  (match Unix.connect fd sa with
   | () -> finish_blocking ()
   | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
     ->
     let deadline = Engine.Clock.now () +. (timeout_ms /. 1000.) in
     let rec wait () =
       let left = deadline -. Engine.Clock.now () in
       if left <= 0. then
         raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
       else
         match Unix.select [] [ fd ] [] left with
         | _, [], [] -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
         | _ -> (
           match Unix.getsockopt_error fd with
           | None -> finish_blocking ()
           | Some err -> raise (Unix.Unix_error (err, "connect", "")))
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
     in
     wait ())

let connect_fd ?timeout_ms addr =
  Lazy.force ignore_sigpipe;
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (match
     let sa = sockaddr addr in
     (match timeout_ms with
      | None -> Unix.connect fd sa
      | Some ms -> connect_timeout fd sa ms);
     set_nodelay addr fd
   with
   | () -> ()
   | exception e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let unlink_if_unix = function
  | Unix_sock path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
