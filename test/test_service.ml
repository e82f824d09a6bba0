(** The seqd service stack: wire protocol, two-tier cache, handler
    semantics, in-process server end-to-end, metrics, CLI validation.

    The load-bearing properties, matching docs/SERVICE.md:
    - protocol encode/decode is an identity on every constructor, and
      framing rejects bad magic / version / truncation deterministically;
    - any corrupted cache entry — truncated, garbled, or written by
      another format version — is a miss, never an error;
    - a server-returned verdict is byte-identical to a local
      [Optimizer.Validate] run (qcheck over the corpus), and cache hits
      preserve the original proof provenance while re-tagging the tier;
    - a warm corpus pass answers entirely from cache (zero computed). *)

module Proto = Service.Proto
module Cache = Service.Cache
module Handler = Service.Handler
module Server = Service.Server
module Client = Service.Client
module C = Litmus.Catalog

(* naive substring search, enough for asserting on rendered snapshots *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* every regular file under [dir], deepest-last order not guaranteed *)
let rec files_under dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun e ->
         let p = Filename.concat dir e in
         if Sys.is_directory p then files_under p else [ p ])

(* ------------------------------------------------------------------ *)
(* protocol                                                            *)
(* ------------------------------------------------------------------ *)

let some_budget = { Proto.timeout_ms = Some 1.5; max_states = Some 42 }

let sample_check =
  { Proto.src = "return 0"; tgt = "return 0"; values = [ 0; 1 ];
    fast_path = true; backend = Proto.default_backend }

let sample_requests =
  [
    Proto.Ping;
    Proto.Check (sample_check, some_budget);
    Proto.Batch ([ sample_check; { sample_check with fast_path = false } ],
                 Proto.no_budget);
    Proto.Lint { prog = "a = X.load(na); return a"; hints = false };
    Proto.Optimize
      ({ Proto.oprog = "X.store(na, 1)"; ovalues = []; ofast_path = true },
       some_budget);
    Proto.Litmus
      ({ Proto.lprog = "return 0 ||| return 1";
         lparams = { Proto.promises = 1; batch = 2; lit_max_states = 10 } },
       Proto.no_budget);
    Proto.Stats;
    Proto.Shutdown;
  ]

let sample_result =
  { Proto.verdict = Proto.Refines_advanced; origin = Some Proto.Static;
    tier = Proto.Disk; states = 7 }

let sample_responses =
  [
    Proto.Pong;
    Proto.Checked sample_result;
    Proto.Checked
      { Proto.verdict = Proto.Unknown "timeout"; origin = None;
        tier = Proto.Computed; states = 0 };
    Proto.Batched [ sample_result; sample_result ];
    Proto.Linted
      { errors = 1; warnings = 2; hints = 3; rendered = "r\n";
        tier = Proto.Mem };
    Proto.Optimized
      { output = "return 0"; result = sample_result;
        passes = [ ("slf", 2); ("dse", 0) ] };
    Proto.Litmus_result
      { behaviors = "{0}"; states = 12; races = true; truncated = false;
        tier = Proto.Computed };
    Proto.Stats_result "req.total 3\n";
    Proto.Err "nope";
    Proto.Bye;
  ]

let test_proto_roundtrip () =
  List.iter
    (fun req ->
      Alcotest.(check bool)
        "request roundtrips" true
        (Proto.decode_request (Proto.encode_request req) = req))
    sample_requests;
  List.iter
    (fun resp ->
      Alcotest.(check bool)
        "response roundtrips" true
        (Proto.decode_response (Proto.encode_response resp) = resp))
    sample_responses

let test_proto_rejects () =
  let garbled = "notaprotocolpayload" in
  (match Proto.decode_request garbled with
   | exception Proto.Error _ -> ()
   | _ -> Alcotest.fail "garbage request accepted");
  (* trailing bytes after a well-formed payload are a codec violation *)
  let padded = Proto.encode_request Proto.Ping ^ "x" in
  (match Proto.decode_request padded with
   | exception Proto.Error _ -> ()
   | _ -> Alcotest.fail "trailing bytes accepted")

let write_all fd s =
  ignore (Unix.write_substring fd s 0 (String.length s))

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let test_framing () =
  (* roundtrip via an OS pipe *)
  with_pipe (fun r w ->
      Proto.write_frame w "hello";
      Proto.write_frame w "";
      Unix.close w;
      Alcotest.(check (option string)) "frame 1" (Some "hello")
        (Proto.read_frame r);
      Alcotest.(check (option string)) "frame 2" (Some "")
        (Proto.read_frame r);
      Alcotest.(check (option string)) "clean EOF" None (Proto.read_frame r));
  (* bad magic *)
  with_pipe (fun r w ->
      write_all w "SEQX\x01\x00\x00\x00\x00";
      Unix.close w;
      match Proto.read_frame r with
      | exception Proto.Error _ -> ()
      | _ -> Alcotest.fail "bad magic accepted");
  (* version mismatch *)
  with_pipe (fun r w ->
      write_all w "SEQD\xff\x00\x00\x00\x00";
      Unix.close w;
      match Proto.read_frame r with
      | exception Proto.Error _ -> ()
      | _ -> Alcotest.fail "bad version accepted");
  (* EOF mid-frame (header promised 5 bytes, delivered 2) *)
  with_pipe (fun r w ->
      write_all w "SEQD\x01\x00\x00\x00\x05ab";
      Unix.close w;
      match Proto.read_frame r with
      | exception Proto.Error _ -> ()
      | _ -> Alcotest.fail "truncated frame accepted")

(* ------------------------------------------------------------------ *)
(* cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_tiers () =
  let dir = temp_dir "seq-cache" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.create ~dir ~mem_capacity:8 () in
  Alcotest.(check bool) "miss before add" true (Cache.find c "k1" = None);
  Cache.add c "k1" "payload-1";
  Alcotest.(check bool) "mem hit" true
    (Cache.find c "k1" = Some ("payload-1", Cache.Hit_mem));
  (* a fresh cache over the same store: first find comes from disk and is
     promoted, the second from memory *)
  let c2 = Cache.create ~dir ~mem_capacity:8 () in
  Alcotest.(check bool) "disk hit" true
    (Cache.find c2 "k1" = Some ("payload-1", Cache.Hit_disk));
  Alcotest.(check bool) "promoted to mem" true
    (Cache.find c2 "k1" = Some ("payload-1", Cache.Hit_mem));
  let s = Cache.stats c2 in
  Alcotest.(check int) "one disk hit" 1 s.Cache.hits_disk;
  Alcotest.(check int) "one mem hit" 1 s.Cache.hits_mem

let test_cache_lru_eviction () =
  let dir = temp_dir "seq-cache" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.create ~dir ~mem_capacity:2 () in
  Cache.add c "a" "A";
  Cache.add c "b" "B";
  Cache.add c "c" "C";
  Alcotest.(check int) "capacity respected" 2 (Cache.mem_size c);
  (* the oldest entry fell out of the LRU but survives on disk *)
  Alcotest.(check bool) "evicted entry served from disk" true
    (Cache.find c "a" = Some ("A", Cache.Hit_disk));
  (* memory-only cache: eviction loses the entry for good *)
  let m = Cache.create ~mem_capacity:2 () in
  Cache.add m "a" "A";
  Cache.add m "b" "B";
  Cache.add m "c" "C";
  Alcotest.(check bool) "memory-only eviction is a miss" true
    (Cache.find m "a" = None)

(* corrupt every entry file under [dir] with [f] and expect a miss *)
let corruption_case ~what f =
  let dir = temp_dir "seq-cache" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.create ~dir ~mem_capacity:4 () in
  Cache.add c "key" "precious payload";
  let entries =
    List.filter
      (fun p -> Filename.basename p <> "VERSION")
      (files_under dir)
  in
  Alcotest.(check bool) "one entry on disk" true (List.length entries = 1);
  List.iter f entries;
  (* a fresh cache (cold LRU) must treat the damage as a miss *)
  let c2 = Cache.create ~dir ~mem_capacity:4 () in
  Alcotest.(check bool) what true (Cache.find c2 "key" = None)

let test_cache_truncated_entry () =
  corruption_case ~what:"truncated entry is a miss" (fun path ->
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full / 2))))

let test_cache_empty_entry () =
  corruption_case ~what:"zero-byte entry is a miss" (fun path ->
      Out_channel.with_open_bin path (fun _ -> ()))

let test_cache_garbled_entry () =
  corruption_case ~what:"garbled payload is a miss" (fun path ->
      let full =
        Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
      in
      (* flip one payload byte; magic/version/length stay plausible *)
      let i = Bytes.length full - 1 in
      Bytes.set full i (Char.chr (Char.code (Bytes.get full i) lxor 0xff));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc full))

let test_cache_version_mismatch_entry () =
  corruption_case ~what:"other-format entry is a miss" (fun path ->
      let full =
        Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
      in
      (* byte 4 is the per-entry format version *)
      Bytes.set full 4 (Char.chr (Cache.format_version + 1));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc full))

let test_cache_store_version_mismatch () =
  let dir = temp_dir "seq-cache" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.create ~dir ~mem_capacity:4 () in
  Cache.add c "key" "payload";
  (* simulate a store stamped by a future format *)
  Out_channel.with_open_text (Filename.concat dir "VERSION") (fun oc ->
      Out_channel.output_string oc "999\n");
  let c2 = Cache.create ~dir ~mem_capacity:4 () in
  Alcotest.(check bool) "mismatched store reads as empty" true
    (Cache.find c2 "key" = None);
  (* ... and was re-stamped so new writes land in the current format *)
  Cache.add c2 "key2" "fresh";
  let c3 = Cache.create ~dir ~mem_capacity:4 () in
  Alcotest.(check bool) "re-stamped store serves new writes" true
    (Cache.find c3 "key2" = Some ("fresh", Cache.Hit_disk))

(* ------------------------------------------------------------------ *)
(* fingerprinting                                                      *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_keys () =
  let fp src = Lang.Fingerprint.stmt (Lang.Parser.stmt_of_string src) in
  Alcotest.(check bool) "identical programs agree" true
    (fp "a = X.load(na); return a" = fp "a  =  X.load( na ) ;  return a");
  Alcotest.(check bool) "different mode differs" true
    (fp "a = X.load(na); return a" <> fp "a = X.load(rlx); return a");
  Alcotest.(check bool) "different value differs" true
    (fp "X.store(na, 1)" <> fp "X.store(na, 2)");
  (* the part list is length-prefixed: concatenation cannot collide *)
  Alcotest.(check bool) "key parts are delimited" true
    (Lang.Fingerprint.key [ "ab"; "c" ] <> Lang.Fingerprint.key [ "a"; "bc" ])

(* ------------------------------------------------------------------ *)
(* handler semantics                                                   *)
(* ------------------------------------------------------------------ *)

let check_of (t : C.transformation) =
  { Proto.src = t.C.src; tgt = t.C.tgt; values = []; fast_path = true;
    backend = Proto.default_backend }

let handler_check h ?(budget = Proto.no_budget) t =
  match Handler.handle h (Proto.Check (check_of t, budget)) with
  | Proto.Checked r -> r
  | _ -> Alcotest.fail "expected Checked"

let test_handler_tiers_and_provenance () =
  let dir = temp_dir "seq-handler" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let h = Handler.create ~cache_dir:dir () in
  let tr = List.hd C.transformations in
  let cold = handler_check h tr in
  Alcotest.(check bool) "cold pass computes" true
    (cold.Proto.tier = Proto.Computed);
  let warm = handler_check h tr in
  Alcotest.(check bool) "warm pass hits memory" true
    (warm.Proto.tier = Proto.Mem);
  (* the definite verdict and its provenance survive the cache verbatim *)
  Alcotest.(check bool) "verdict preserved" true
    (warm.Proto.verdict = cold.Proto.verdict);
  Alcotest.(check bool) "origin preserved" true
    (warm.Proto.origin = cold.Proto.origin);
  (* a fresh handler over the same store: disk tier *)
  let h2 = Handler.create ~cache_dir:dir () in
  let disk = handler_check h2 tr in
  Alcotest.(check bool) "restart hits disk" true
    (disk.Proto.tier = Proto.Disk);
  Alcotest.(check bool) "verdict preserved across restart" true
    (disk.Proto.verdict = cold.Proto.verdict)

let test_handler_unknown_uncached () =
  let h = Handler.create () in
  let tr =
    (* an enumerated (not statically certified) corpus entry, so the
       zero-state budget bites *)
    List.find (fun (t : C.transformation) -> t.C.name = "no-rlx-store-elim")
      C.transformations
  in
  let starved = { Proto.timeout_ms = None; max_states = Some 0 } in
  let r = handler_check h ~budget:starved tr in
  (match r.Proto.verdict with
   | Proto.Unknown _ -> ()
   | _ -> Alcotest.fail "expected Unknown under a zero budget");
  Alcotest.(check bool) "unknown has no origin" true (r.Proto.origin = None);
  (* the budget-dependent answer was not cached: an unlimited retry
     computes (a cache hit would re-serve Unknown forever) *)
  let r2 = handler_check h tr in
  Alcotest.(check bool) "retry computes a definite verdict" true
    (r2.Proto.tier = Proto.Computed
     && match r2.Proto.verdict with Proto.Unknown _ -> false | _ -> true)

(* Per-backend cache isolation: the key includes the backend name, so a
   cached SEQ verdict is never served for a tso check (the two notions
   can genuinely disagree), hw verdicts carry Enumerated provenance, and
   unknown backend names answer Unknown without polluting the cache. *)
let test_handler_backend_isolation () =
  let dir = temp_dir "seq-handler-hw" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let h = Handler.create ~cache_dir:dir () in
  let tr = List.hd C.transformations in
  let check b = { (check_of tr) with Proto.backend = b } in
  let run c =
    match Handler.handle h (Proto.Check (c, Proto.no_budget)) with
    | Proto.Checked r -> r
    | _ -> Alcotest.fail "expected Checked"
  in
  let seq = run (check Proto.default_backend) in
  Alcotest.(check bool) "seq cold computes" true
    (seq.Proto.tier = Proto.Computed);
  let tso = run (check "tso") in
  Alcotest.(check bool) "tso computes despite warm seq entry" true
    (tso.Proto.tier = Proto.Computed);
  Alcotest.(check bool) "hw verdict has enumerated provenance" true
    (tso.Proto.origin = Some Proto.Enumerated);
  Alcotest.(check bool) "tso warm pass hits memory" true
    ((run (check "tso")).Proto.tier = Proto.Mem);
  Alcotest.(check bool) "seq entry survives untouched" true
    ((run (check Proto.default_backend)).Proto.tier = Proto.Mem);
  (* an unknown backend name is a per-request error, not a cacheable
     verdict *)
  let bogus = run (check "bogus") in
  (match bogus.Proto.verdict with
   | Proto.Unknown _ -> ()
   | _ -> Alcotest.fail "unknown backend must answer Unknown");
  Alcotest.(check bool) "unknown backend is not cached" true
    ((run (check "bogus")).Proto.tier = Proto.Computed)

let test_handler_parse_error () =
  let h = Handler.create () in
  (match Handler.handle h (Proto.Check ({ Proto.src = "while ("; tgt = "return 0"; values = []; fast_path = true; backend = Proto.default_backend }, Proto.no_budget)) with
   | Proto.Checked { verdict = Proto.Unknown _; origin = None; _ } -> ()
   | _ -> Alcotest.fail "parse failure must answer Unknown");
  (* and handle never raises on garbage programs in other requests *)
  match Handler.handle h (Proto.Lint { prog = "|||"; hints = true }) with
  | Proto.Err _ | Proto.Linted _ -> ()
  | _ -> Alcotest.fail "unexpected lint response"

(* Beyond the packed core's 16 non-atomic locations seqd is undecided
   with the reason local seqcheck prints (test_cli pins that side), with
   or without the static tier, and the answer is not cached. *)
let test_handler_unpackable () =
  let big =
    String.concat "; "
      (List.init 17 (fun i -> Printf.sprintf "%c.store(na, 1)" (Char.chr (65 + i))))
    ^ "; return 0"
  in
  let h = Handler.create () in
  List.iter
    (fun fast_path ->
      let c =
        { Proto.src = big; tgt = big; values = []; fast_path;
          backend = Proto.default_backend }
      in
      for _ = 1 to 2 do
        match Handler.handle h (Proto.Check (c, Proto.no_budget)) with
        | Proto.Checked r ->
          Alcotest.(check string)
            (Printf.sprintf "fast_path=%b" fast_path)
            "UNKNOWN(over 16 non-atomic locations) computed"
            (Printf.sprintf "%s %s"
               (Proto.verdict_to_string r.Proto.verdict)
               (Proto.tier_to_string r.Proto.tier));
          Alcotest.(check bool) "no origin" true (r.Proto.origin = None)
        | _ -> Alcotest.fail "expected Checked"
      done)
    [ true; false ]

let test_handler_batch_order () =
  let h = Handler.create () in
  let trs = List.filteri (fun i _ -> i < 6) C.transformations in
  let checks = List.map check_of trs in
  let batched =
    match Handler.handle h (Proto.Batch (checks, Proto.no_budget)) with
    | Proto.Batched rs -> rs
    | _ -> Alcotest.fail "expected Batched"
  in
  let singles = List.map (fun t -> handler_check h t) trs in
  (* the batch computed cold; the singles then hit memory — so compare
     verdict/origin only, which must agree pairwise in corpus order *)
  List.iter2
    (fun (b : Proto.check_result) (s : Proto.check_result) ->
      Alcotest.(check bool) "batch and single agree" true
        (b.Proto.verdict = s.Proto.verdict && b.Proto.origin = s.Proto.origin))
    batched singles

(* qcheck: the service's verdict/origin equals a local Validate.run on
   the same pair, for every corpus transformation (random order). *)
let prop_server_matches_local =
  QCheck.Test.make ~count:40 ~name:"service verdict == local Validate"
    QCheck.(int_range 0 (List.length C.transformations - 1))
    (fun i ->
      let tr = List.nth C.transformations i in
      let h = Handler.create () in
      let remote = handler_check h tr in
      let local =
        let src = Lang.Parser.stmt_of_string tr.C.src in
        let tgt = Lang.Parser.stmt_of_string tr.C.tgt in
        Handler.of_outcome (Optimizer.Validate.run ~src ~tgt ())
      in
      (remote.Proto.verdict, remote.Proto.origin) = local)

(* ------------------------------------------------------------------ *)
(* in-process server end-to-end                                        *)
(* ------------------------------------------------------------------ *)

let test_server_end_to_end () =
  let dir = temp_dir "seq-server" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config =
    {
      (Server.default_config
         ~socket_path:(Filename.concat dir "seqd.sock"))
      with
      cache_dir = Some (Filename.concat dir "cache");
      jobs = 2;
    }
  in
  let trs = List.filteri (fun i _ -> i < 8) C.transformations in
  let checks = List.map check_of trs in
  let handle = Server.spawn config in
  let cold, warm =
    Client.with_connection config.Server.socket_path (fun c ->
        Alcotest.(check bool) "ping" true (Client.ping c);
        let cold = Client.batch c checks in
        let warm = Client.batch c checks in
        let stats = Client.stats c in
        Alcotest.(check bool) "stats mentions requests" true
          (String.length stats > 0);
        (cold, warm))
  in
  Server.stop handle;
  Alcotest.(check int) "all answered" (List.length checks)
    (List.length cold);
  List.iter
    (fun (r : Proto.check_result) ->
      Alcotest.(check bool) "cold computes" true (r.Proto.tier = Proto.Computed))
    cold;
  List.iter2
    (fun (r : Proto.check_result) (c0 : Proto.check_result) ->
      Alcotest.(check bool) "warm hits memory" true (r.Proto.tier = Proto.Mem);
      Alcotest.(check bool) "warm verdict identical" true
        (r.Proto.verdict = c0.Proto.verdict
         && r.Proto.origin = c0.Proto.origin))
    warm cold;
  (* restart over the same store: the disk tier answers *)
  let handle = Server.spawn config in
  let after =
    Client.with_connection config.Server.socket_path (fun c ->
        Client.batch c checks)
  in
  Server.stop handle;
  List.iter
    (fun (r : Proto.check_result) ->
      Alcotest.(check bool) "post-restart hits disk" true
        (r.Proto.tier = Proto.Disk))
    after;
  (* the socket is unlinked by the drain *)
  Alcotest.(check bool) "socket unlinked" false
    (Sys.file_exists config.Server.socket_path)

(* ------------------------------------------------------------------ *)
(* incremental framing (the nonblocking server's read path)            *)
(* ------------------------------------------------------------------ *)

let test_assembler_incremental () =
  let a = Proto.Assembler.create () in
  let wire =
    Proto.Assembler.frame_bytes "hello"
    ^ Proto.Assembler.frame_bytes ""
    ^ Proto.Assembler.frame_bytes "world"
  in
  (* drip the wire bytes in one-byte reads: frame boundaries must not
     depend on read chunking *)
  String.iter (fun c -> Proto.Assembler.feed a (Bytes.make 1 c) 0 1) wire;
  Alcotest.(check (option string)) "frame 1" (Some "hello")
    (Proto.Assembler.next a);
  Alcotest.(check (option string)) "frame 2 (empty)" (Some "")
    (Proto.Assembler.next a);
  Alcotest.(check (option string)) "frame 3" (Some "world")
    (Proto.Assembler.next a);
  Alcotest.(check (option string)) "drained" None (Proto.Assembler.next a);
  Alcotest.(check bool) "between frames: EOF would be clean" false
    (Proto.Assembler.mid_frame a);
  (* a partial header means EOF here tears a frame *)
  Proto.Assembler.feed a (Bytes.of_string "SEQ") 0 3;
  Alcotest.(check bool) "mid-header is mid-frame" true
    (Proto.Assembler.mid_frame a);
  (* bad magic is a deterministic protocol error *)
  let b = Proto.Assembler.create () in
  (match Proto.Assembler.feed b (Bytes.of_string "XXXXXXXXX") 0 9 with
   | exception Proto.Error _ -> ()
   | () -> Alcotest.fail "bad magic accepted by assembler")

let test_large_frame_roundtrip () =
  (* ~1 MiB, well under the 16 MiB frame cap but far over any single
     read/write chunk: exercises the partial-read/short-write loops *)
  let payload = String.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) in
  with_pipe (fun r w ->
      let writer = Domain.spawn (fun () -> Proto.write_frame w payload) in
      Alcotest.(check bool) "1 MiB frame roundtrips" true
        (Proto.read_frame r = Some payload);
      Domain.join writer)

(* ------------------------------------------------------------------ *)
(* client resilience against a scripted daemon                         *)
(* ------------------------------------------------------------------ *)

(* One scripted connection per element: accept, then for each action
   read one request frame and either answer it or hang up. *)
type fake_action = Reply of Proto.response | Hangup

let run_fake_server lfd (conns : fake_action list list) =
  List.iter
    (fun actions ->
      let fd, _ = Unix.accept lfd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try
            List.iter
              (fun act ->
                match Proto.read_frame fd with
                | None -> raise Exit
                | Some _req -> (
                  match act with
                  | Reply r -> Proto.write_frame fd (Proto.encode_response r)
                  | Hangup -> raise Exit))
              actions
          with Exit -> ()))
    conns

let fake_policy =
  {
    Client.resilient_policy with
    attempts = 5;
    base_delay_ms = 1.;
    max_delay_ms = 10.;
    connect_timeout_ms = Some 2000.;
    seed = 3;
  }

let with_fake_server conns f =
  let dir = temp_dir "seq-fake" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "fake.sock" in
  (* bind before spawning, so the client's first connect cannot race the
     listener into an (uncounted-for) extra retry *)
  let lfd = Service.Addr.listen_fd (Service.Addr.Unix_sock path) in
  Fun.protect
    ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let srv = Domain.spawn (fun () -> run_fake_server lfd conns) in
  Fun.protect ~finally:(fun () -> Domain.join srv) (fun () -> f path)

let test_client_retry_until_success () =
  (* two connections die after reading the request; the third answers —
     the client must mask both failures and count them *)
  with_fake_server
    [ [ Hangup ]; [ Hangup ]; [ Reply Proto.Pong ] ]
    (fun path ->
      let c = Client.connect ~policy:fake_policy path in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Alcotest.(check bool) "ping survives two dead connections" true
        (Client.ping c);
      let k = Client.counters c in
      Alcotest.(check int) "two retries" 2 k.Client.retries;
      Alcotest.(check int) "two reconnects" 2 k.Client.reconnects;
      Alcotest.(check int) "no busy" 0 k.Client.busy)

let test_client_busy_backoff () =
  (* the admission gate answers Busy twice on a healthy connection: the
     client backs off and re-sends without reconnecting *)
  with_fake_server
    [ [ Reply Proto.Busy; Reply Proto.Busy; Reply Proto.Pong ] ]
    (fun path ->
      let c = Client.connect ~policy:fake_policy path in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Alcotest.(check bool) "ping survives Busy answers" true (Client.ping c);
      let k = Client.counters c in
      Alcotest.(check int) "two busy answers" 2 k.Client.busy;
      Alcotest.(check int) "busy retries counted" 2 k.Client.retries;
      Alcotest.(check int) "same connection throughout" 0 k.Client.reconnects)

let test_backoff_deterministic () =
  let b attempt =
    Engine.Faults.backoff_ms ~seed:1 ~base_ms:5. ~max_ms:100. ~attempt
  in
  Alcotest.(check bool) "same (seed, attempt) replays" true (b 1 = b 1);
  (* attempt n's delay is in [base * 2^(n-1), 1.5 * that], capped *)
  Alcotest.(check bool) "first delay within [5, 7.5]" true
    (b 1 >= 5. && b 1 <= 7.5);
  Alcotest.(check bool) "fourth delay within [40, 60]" true
    (b 4 >= 40. && b 4 <= 60.);
  Alcotest.(check bool) "cap respected far out" true (b 12 <= 100.);
  Alcotest.(check bool) "different seed, different jitter" true
    (Engine.Faults.backoff_ms ~seed:2 ~base_ms:5. ~max_ms:100. ~attempt:1
     <> b 1)

(* ------------------------------------------------------------------ *)
(* chaos proxy                                                         *)
(* ------------------------------------------------------------------ *)

let test_chaos_schedule_determinism () =
  let module Chaos = Service.Chaos in
  let s = Chaos.schedule 11 in
  let seq () = List.init 200 (Chaos.fault_at s) in
  Alcotest.(check bool) "fixed seed replays the fault sequence" true
    (seq () = seq ());
  Alcotest.(check bool) "another seed gives another sequence" true
    (List.init 200 (Chaos.fault_at (Chaos.schedule 12)) <> seq ());
  Alcotest.(check bool) "rate 0 never faults" true
    (List.for_all
       (fun f -> f = Chaos.Pass)
       (List.init 200 (Chaos.fault_at (Chaos.schedule ~rate:0. 11))));
  Alcotest.(check bool) "rate 1 always faults" true
    (List.for_all
       (fun f -> f <> Chaos.Pass)
       (List.init 200 (Chaos.fault_at (Chaos.schedule ~rate:1. 11))))

let test_chaos_end_to_end () =
  let module Chaos = Service.Chaos in
  let dir = temp_dir "seq-chaos" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "seqd.sock" in
  let proxy_sock = Filename.concat dir "chaos.sock" in
  let config =
    { (Server.default_config ~socket_path:sock) with jobs = 2 }
  in
  let trs = List.filteri (fun i _ -> i < 8) C.transformations in
  let handle = Server.spawn config in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  let proxy =
    Chaos.start
      ~listen:(Service.Addr.Unix_sock proxy_sock)
      ~upstream:(Service.Addr.Unix_sock sock)
      (Chaos.schedule ~rate:0.3 5)
  in
  Fun.protect ~finally:(fun () -> Chaos.stop proxy) @@ fun () ->
  let policy =
    {
      Client.resilient_policy with
      attempts = 16;
      base_delay_ms = 1.;
      max_delay_ms = 10.;
      request_timeout_ms = Some 500.;
      seed = 5;
    }
  in
  let through_chaos =
    Client.with_connection ~policy proxy_sock (fun c ->
        List.map
          (fun (t : C.transformation) ->
            let r = Client.check c ~src:t.C.src ~tgt:t.C.tgt () in
            (r.Proto.verdict, r.Proto.origin))
          trs)
  in
  (* same pairs, no network, no faults *)
  let h = Handler.create () in
  let local =
    List.map
      (fun t ->
        let r = handler_check h t in
        (r.Proto.verdict, r.Proto.origin))
      trs
  in
  Alcotest.(check bool) "verdicts through chaos == local" true
    (through_chaos = local);
  Alcotest.(check bool) "the schedule actually injected faults" true
    (Chaos.injected (Chaos.counts proxy) > 0)

(* ------------------------------------------------------------------ *)
(* crash recovery: fsck                                                *)
(* ------------------------------------------------------------------ *)

let test_fsck_recovers_store () =
  let dir = temp_dir "seq-fsck" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.create ~dir ~mem_capacity:8 () in
  Cache.add c "k1" "payload-1";
  Cache.add c "k2" "payload-2";
  let entries =
    List.filter (fun p -> Filename.basename p <> "VERSION") (files_under dir)
  in
  Alcotest.(check int) "two entries on disk" 2 (List.length entries);
  (* a kill mid-write: one torn entry plus one orphan temp file *)
  let victim = List.hd entries in
  let full = In_channel.with_open_bin victim In_channel.input_all in
  Out_channel.with_open_bin victim (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full / 2)));
  Out_channel.with_open_bin
    (Filename.concat (Filename.dirname victim) ".seqc-orphan.tmp")
    (fun oc -> Out_channel.output_string oc "torn write debris");
  let r = Cache.fsck ~dir in
  Alcotest.(check int) "scanned both entries" 2 r.Cache.scanned;
  Alcotest.(check int) "one valid" 1 r.Cache.valid;
  Alcotest.(check int) "one pruned" 1 r.Cache.pruned;
  Alcotest.(check int) "one orphan removed" 1 r.Cache.orphan_tmp;
  Alcotest.(check bool) "dirty store reported" false (Cache.fsck_clean r);
  (* second pass: the store is clean now *)
  let r2 = Cache.fsck ~dir in
  Alcotest.(check bool) "second pass clean" true (Cache.fsck_clean r2);
  Alcotest.(check int) "one entry survives" 1 r2.Cache.scanned;
  (* the surviving entry still serves; the pruned one is an honest miss *)
  let c2 = Cache.create ~dir ~mem_capacity:8 () in
  let hit k = Cache.find c2 k <> None in
  Alcotest.(check bool) "exactly one key survives" true
    (hit "k1" <> hit "k2")

let test_fsck_missing_dir () =
  let r = Cache.fsck ~dir:"/nonexistent/seq-fsck-nowhere" in
  Alcotest.(check bool) "missing dir is a clean zero report" true
    (Cache.fsck_clean r && r.Cache.scanned = 0)

(* ------------------------------------------------------------------ *)
(* TCP transport and concurrent clients                                *)
(* ------------------------------------------------------------------ *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> Alcotest.fail "expected an inet sockaddr"

let test_server_tcp_matches_unix () =
  let dir = temp_dir "seq-tcp" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let port = free_port () in
  let config =
    {
      (Server.default_config ~socket_path:(Filename.concat dir "seqd.sock"))
      with
      tcp = Some ("127.0.0.1", port);
      cache_dir = Some (Filename.concat dir "cache");
      jobs = 2;
    }
  in
  let trs = List.filteri (fun i _ -> i < 8) C.transformations in
  let checks = List.map check_of trs in
  let handle = Server.spawn config in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  let via_unix =
    Client.with_connection config.Server.socket_path (fun c ->
        Client.batch c checks)
  in
  let via_tcp =
    Client.with_connection
      (Printf.sprintf "tcp:127.0.0.1:%d" port)
      (fun c -> Client.batch c checks)
  in
  List.iter2
    (fun (u : Proto.check_result) (t : Proto.check_result) ->
      Alcotest.(check bool) "tcp verdict == unix verdict" true
        (t.Proto.verdict = u.Proto.verdict && t.Proto.origin = u.Proto.origin);
      (* both transports share one daemon cache: the second pass hits *)
      Alcotest.(check bool) "tcp pass served from cache" true
        (t.Proto.tier = Proto.Mem))
    via_unix via_tcp

let test_server_concurrent_clients () =
  let dir = temp_dir "seq-conc" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config =
    {
      (Server.default_config ~socket_path:(Filename.concat dir "seqd.sock"))
      with
      jobs = 2;
      max_inflight = 16;
    }
  in
  let trs = List.filteri (fun i _ -> i < 10) C.transformations in
  let handle = Server.spawn config in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  let worker () =
    Client.with_connection config.Server.socket_path (fun c ->
        List.map
          (fun (t : C.transformation) ->
            let r = Client.check c ~src:t.C.src ~tgt:t.C.tgt () in
            (r.Proto.verdict, r.Proto.origin))
          trs)
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let results = List.map Domain.join domains in
  let reference = List.hd results in
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "client %d agrees with client 0" i)
        true (r = reference))
    results;
  (* and with a local, serial evaluation *)
  let h = Handler.create () in
  let local =
    List.map
      (fun t ->
        let r = handler_check h t in
        (r.Proto.verdict, r.Proto.origin))
      trs
  in
  Alcotest.(check bool) "concurrent verdicts == local" true
    (reference = local)

(* ------------------------------------------------------------------ *)
(* allocation per cached request                                       *)
(* ------------------------------------------------------------------ *)

(* Words a cached check may cost, client and server together: about
   1 560 on the first catalog pair with one read buffer per connection
   and a lexer of constant tokens, plus headroom.  A client that
   allocates its 64 KiB read buffer per response pays 8 193 words for
   that alone (11 550 in all). *)
let cached_request_words_max = 4000.

(* Words allocated by this domain and every joined one: minor + major -
   promoted, after a minor collection so the counts are current. *)
let words_allocated () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* One in-process server and one connection sending the same pair [1 + n]
   times: computed once, then [n] memory hits.  Read after [Server.stop]
   has joined the server domain, so its allocation counts too. *)
let cached_session_words ~n =
  let dir = temp_dir "seq-alloc" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config =
    { (Server.default_config ~socket_path:(Filename.concat dir "seqd.sock"))
      with jobs = 1 }
  in
  let tr = List.hd C.transformations in
  let w0 = words_allocated () in
  let handle = Server.spawn config in
  Client.with_connection config.Server.socket_path (fun c ->
      for _ = 0 to n do
        ignore (Client.check c ~src:tr.C.src ~tgt:tr.C.tgt ())
      done);
  Server.stop handle;
  words_allocated () -. w0

(* The slope between two request counts cancels the server's start, the
   first (computed) answer and the drain. *)
let test_cached_request_words () =
  let lo = 40 and hi = 160 in
  let w_lo = cached_session_words ~n:lo in
  let w_hi = cached_session_words ~n:hi in
  let per_request = (w_hi -. w_lo) /. float (hi - lo) in
  if per_request > cached_request_words_max then
    Alcotest.failf "%.0f words per cached request (at most %.0f)" per_request
      cached_request_words_max

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics () =
  let m = Engine.Metrics.create () in
  Engine.Metrics.incr m "req.total";
  Engine.Metrics.incr ~n:4 m "req.total";
  Alcotest.(check int) "counter" 5 (Engine.Metrics.get m "req.total");
  Alcotest.(check int) "absent counter" 0 (Engine.Metrics.get m "nope");
  for i = 1 to 100 do
    Engine.Metrics.observe m "lat" (float_of_int i)
  done;
  (match Engine.Metrics.latency m "lat" with
   | None -> Alcotest.fail "expected a latency summary"
   | Some l ->
     Alcotest.(check int) "count" 100 l.Engine.Metrics.count;
     (* nearest-rank on 1..100: p50 = 50, p90 = 90, p99 = 99 *)
     Alcotest.(check (float 0.0)) "p50" 50.0 l.Engine.Metrics.p50;
     Alcotest.(check (float 0.0)) "p90" 90.0 l.Engine.Metrics.p90;
     Alcotest.(check (float 0.0)) "p99" 99.0 l.Engine.Metrics.p99);
  let rendered = Engine.Metrics.render m in
  Alcotest.(check bool) "render lists the counter" true
    (contains ~sub:"req.total 5" rendered)

(* ------------------------------------------------------------------ *)
(* CLI flag validation                                                 *)
(* ------------------------------------------------------------------ *)

let test_cliopts () =
  let ok = function Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "jobs 1 ok" true (ok (Engine.Cliopts.validate_jobs 1));
  Alcotest.(check bool) "jobs 0 rejected" false
    (ok (Engine.Cliopts.validate_jobs 0));
  Alcotest.(check bool) "jobs -3 rejected" false
    (ok (Engine.Cliopts.validate_jobs (-3)));
  Alcotest.(check bool) "absent timeout ok" true
    (ok (Engine.Cliopts.validate_timeout_ms None));
  Alcotest.(check bool) "zero timeout ok" true
    (ok (Engine.Cliopts.validate_timeout_ms (Some 0.0)));
  Alcotest.(check bool) "negative timeout rejected" false
    (ok (Engine.Cliopts.validate_timeout_ms (Some (-1.0))));
  Alcotest.(check bool) "nan timeout rejected" false
    (ok (Engine.Cliopts.validate_timeout_ms (Some Float.nan)));
  Alcotest.(check bool) "negative retries rejected" false
    (ok (Engine.Cliopts.validate_retries (-1)));
  Alcotest.(check bool) "negative max-states rejected" false
    (ok (Engine.Cliopts.validate_max_states (Some (-1))));
  Alcotest.(check bool) "combined validation finds first error" true
    (match
       Engine.Cliopts.validate ~jobs:0 ~timeout_ms:(Some (-1.0))
         ~max_states:None ()
     with
     | Error msg -> contains ~sub:"--jobs" msg
     | Ok () -> false);
  Alcotest.(check int) "usage exit code" 2 Engine.Cliopts.usage_exit

let suite =
  [
    Alcotest.test_case "proto: encode/decode roundtrip" `Quick
      test_proto_roundtrip;
    Alcotest.test_case "proto: codec rejects garbage" `Quick test_proto_rejects;
    Alcotest.test_case "proto: framing boundaries" `Quick test_framing;
    Alcotest.test_case "cache: mem/disk tiers + promotion" `Quick
      test_cache_tiers;
    Alcotest.test_case "cache: LRU eviction with disk fallback" `Quick
      test_cache_lru_eviction;
    Alcotest.test_case "cache: truncated entry is a miss" `Quick
      test_cache_truncated_entry;
    Alcotest.test_case "cache: zero-byte entry is a miss" `Quick
      test_cache_empty_entry;
    Alcotest.test_case "cache: garbled entry is a miss" `Quick
      test_cache_garbled_entry;
    Alcotest.test_case "cache: foreign-version entry is a miss" `Quick
      test_cache_version_mismatch_entry;
    Alcotest.test_case "cache: store VERSION mismatch reads empty" `Quick
      test_cache_store_version_mismatch;
    Alcotest.test_case "fingerprint: canonical keys" `Quick
      test_fingerprint_keys;
    Alcotest.test_case "handler: tier progression, provenance" `Quick
      test_handler_tiers_and_provenance;
    Alcotest.test_case "handler: per-backend verdicts never leak" `Quick
      test_handler_backend_isolation;
    Alcotest.test_case "handler: Unknown is never cached" `Quick
      test_handler_unknown_uncached;
    Alcotest.test_case "handler: parse errors answer Unknown" `Quick
      test_handler_parse_error;
    Alcotest.test_case "handler: batch == singles, in order" `Quick
      test_handler_batch_order;
    QCheck_alcotest.to_alcotest prop_server_matches_local;
    Alcotest.test_case "server: end-to-end tiers over a socket" `Quick
      test_server_end_to_end;
    Alcotest.test_case "proto: assembler reassembles any chunking" `Quick
      test_assembler_incremental;
    Alcotest.test_case "proto: 1 MiB frame roundtrips" `Quick
      test_large_frame_roundtrip;
    Alcotest.test_case "client: retries until a connection survives" `Quick
      test_client_retry_until_success;
    Alcotest.test_case "client: Busy backs off on the same connection" `Quick
      test_client_busy_backoff;
    Alcotest.test_case "faults: backoff is seeded and capped" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "chaos: schedule is pure in (seed, index)" `Quick
      test_chaos_schedule_determinism;
    Alcotest.test_case "chaos: corpus verdicts survive a faulty wire" `Quick
      test_chaos_end_to_end;
    Alcotest.test_case "fsck: prunes torn entries and orphan tmps" `Quick
      test_fsck_recovers_store;
    Alcotest.test_case "fsck: missing store is clean" `Quick
      test_fsck_missing_dir;
    Alcotest.test_case "server: tcp and unix answer identically" `Quick
      test_server_tcp_matches_unix;
    Alcotest.test_case "server: concurrent clients, one answer" `Quick
      test_server_concurrent_clients;
    Alcotest.test_case "metrics: counters and percentiles" `Quick test_metrics;
    Alcotest.test_case "cliopts: range validation" `Quick test_cliopts;
    Alcotest.test_case "handler: UNKNOWN beyond 16 locations, like seqcheck"
      `Quick test_handler_unpackable;
    Alcotest.test_case "client: words per cached request" `Quick
      test_cached_request_words;
  ]
