(* seqd: the cold, warm and restart passes of the bench's E10 table, sent
   as single check requests by one client, each after the previous answer
   (a closed loop), over one Unix-socket connection to an in-process seqd
   ([Service.Server.spawn], one job, a fresh disk store, an LRU of half
   the keys).

   Keys: every catalog pair under [renamings] consistent renamings of its
   registers and locations, with the fast path on and off (a pair without
   registers or locations gives one key for all renamings), in catalog
   order.  Passes, as in E10:
   - cold: every key once, so every answer is computed and written;
   - warm: every key once more, in reverse order, so the half still in
     the LRU answers from memory and the rest from disk (in the same
     order an LRU smaller than the keys would answer all from disk; E10's
     LRU of 4096 holds every key and answers all from memory);
   - restart: the server is stopped and a fresh one started on the same
     store, and every key is sent once more: all answers from disk.
   The seed picks the renamings (distinct fingerprints, same verdicts);
   the number of keys, requests and answers per tier is the same for
   every seed. *)

module C = Litmus.Catalog
module P = Service.Proto

let renamings = 4

type key = { tr : C.transformation; fast_path : bool; src : string; tgt : string }

type session = {
  keys : key array;
  dir : string;
  config : Service.Server.config;
  mutable server : Service.Server.handle;
  mutable client : Service.Client.t;
  mutable open_ : bool;
}

let keys ~seed =
  let seen = Hashtbl.create 512 in
  Rename.tags ~seed renamings
  |> List.concat_map (fun tag ->
         List.concat_map
           (fun (tr : C.transformation) ->
             let src = Rename.text tag tr.C.src
             and tgt = Rename.text tag tr.C.tgt in
             [ { tr; fast_path = true; src; tgt };
               { tr; fast_path = false; src; tgt } ])
           C.transformations)
  (* a pair without names renames to itself: one key for all renamings *)
  |> List.filter (fun k ->
         let id = (k.src, k.tgt, k.fast_path) in
         if Hashtbl.mem seen id then false
         else begin
           Hashtbl.add seen id ();
           true
         end)
  |> Array.of_list

let start config =
  let server =
    Trace.span "service.spawn" (fun () -> Service.Server.spawn config)
  in
  (server, Service.Client.connect config.Service.Server.socket_path)

let setup ~seed =
  let keys = keys ~seed in
  let dir = Common.fresh_dir "seqd" in
  let config =
    { (Service.Server.default_config ~socket_path:(dir ^ "/seqd.sock")) with
      Service.Server.cache_dir = Some (dir ^ "/store");
      mem_capacity = Array.length keys / 2; jobs = 1 }
  in
  let server, client = start config in
  { keys; dir; config; server; client; open_ = true }

(* Stop the server (joining its domains). *)
let stop s =
  if s.open_ then begin
    s.open_ <- false;
    Service.Client.close s.client;
    Service.Server.stop s.server
  end

let teardown s =
  stop s;
  Common.remove_tree s.dir

let expected (tr : C.transformation) =
  match (tr.C.simple, tr.C.advanced) with
  | C.Sound, _ -> P.Refines_simple
  | C.Unsound, C.Sound -> P.Refines_advanced
  | C.Unsound, C.Unsound -> P.Refuted

let tier_group (r : P.check_result) = "service.check." ^ P.tier_to_string r.P.tier

(* "name value" lines of the stats RPC *)
let stat_counters text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ k; v ] -> Option.map (fun v -> (k, v)) (float_of_string_opt v)
         | _ -> None)

let run s =
  let n = Array.length s.keys in
  let pass order =
    Array.map
      (fun ki ->
        let k = s.keys.(ki) in
        let t0 = Trace.now_ns () in
        let r =
          Trace.span ~group:tier_group "service.check" (fun () ->
              Service.Client.check ~fast_path:k.fast_path s.client ~src:k.src
                ~tgt:k.tgt ())
        in
        (ki, r, Trace.seconds_since t0 *. 1e3))
      order
  in
  let forward = Array.init n Fun.id in
  let cold = pass forward in
  let warm = pass (Array.init n (fun i -> n - 1 - i)) in
  let stats1 = stat_counters (Service.Client.stats s.client) in
  stop s;
  let server, client = start s.config in
  s.server <- server;
  s.client <- client;
  s.open_ <- true;
  let restart = pass forward in
  let stats2 = stat_counters (Service.Client.stats s.client) in
  teardown s;
  let answers = Array.concat [ cold; warm; restart ] in
  let cache =
    List.map
      (fun name ->
        let get stats =
          Option.value ~default:0. (List.assoc_opt ("cache." ^ name) stats)
        in
        ("service.cache." ^ name, get stats1 +. get stats2))
      [ "hits_mem"; "hits_disk"; "misses"; "writes" ]
  in
  List.iter (fun (k, v) -> Trace.count k v) cache;
  let verify () =
    let errors = ref [] in
    let computed = Array.make (Array.length s.keys) 0 in
    Array.iter
      (fun (ki, (r : P.check_result), _) ->
        let k = s.keys.(ki) in
        if r.P.tier = P.Computed then computed.(ki) <- computed.(ki) + 1;
        Round.check errors
          (r.P.verdict = expected k.tr)
          "%s (fast path %b): answered %s" k.tr.C.name k.fast_path
          (P.verdict_to_string r.P.verdict))
      answers;
    Array.iteri
      (fun ki n ->
        Round.check errors (n = 1) "%s: computed %d times" s.keys.(ki).tr.C.name n)
      computed;
    (* the passes' tiers: cold computes, warm answers the LRU's half from
       memory and the rest from disk, restart answers from disk *)
    let tiers pass =
      List.map
        (fun t -> Array.fold_left (fun c (_, (r : P.check_result), _) ->
             if r.P.tier = t then c + 1 else c) 0 pass)
        [ P.Computed; P.Mem; P.Disk ]
    in
    let cap = s.config.Service.Server.mem_capacity in
    List.iter
      (fun (name, pass, want) ->
        Round.check errors (tiers pass = want)
          "%s pass: computed/mem/disk %s, expected %s" name
          (String.concat "/" (List.map string_of_int (tiers pass)))
          (String.concat "/" (List.map string_of_int want)))
      [ ("cold", cold, [ n; 0; 0 ]); ("warm", warm, [ 0; cap; n - cap ]);
        ("restart", restart, [ 0; 0; n ]) ];
    (0, List.rev !errors)
  in
  let latencies tier =
    Array.to_list answers
    |> List.filter_map (fun (_, (r : P.check_result), ms) ->
           if r.P.tier = tier then Some ms else None)
  in
  { Round.empty with
    attempted = Array.length answers;
    verify;
    latencies =
      List.map
        (fun t -> ("seqd." ^ P.tier_to_string t, latencies t))
        [ P.Computed; P.Mem; P.Disk ] }

let workload =
  { Round.settle = true; setup; run; discard = teardown; extra = ignore }
