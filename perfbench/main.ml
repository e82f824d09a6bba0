(* The benchmark's measuring program: runs one workload in this process
   and prints its metrics as JSON (see perfbench/README.md).

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --print-reproducer

   Untraced (--trace 0): set up [setup_reps] times, then run whole rounds
   (set-up + items) until S seconds have passed, at least one.  Prints
   the end-to-end metrics.  Traced (--trace 1): one untraced round, then
   the same round traced, then the traced-only extra work; prints the
   per-layer metrics and the tracing overhead. *)

(* Set-up is repeated [setup_reps] times on its own, before the rounds;
   [setup_s] and [setup_mwords] are the medians of these. *)
let setup_reps = 50

type mode = { name : string; seed : int; seconds : float; trace : bool }

(* ---- output ----------------------------------------------------------- *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (k, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_float v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let print_reference fields =
  let f =
    List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_float v)) fields
  in
  Printf.printf "{\"reference\": {%s}}\n" (String.concat ", " f)

(* Check a measured round's outputs: failed operations and whether every
   check held. *)
let verify (r : Round.t) =
  let failed, errors = r.Round.verify () in
  List.iter (fun e -> prerr_endline ("perfbench: check failed: " ^ e)) errors;
  (failed, errors = [])

(* Reference timings: per-round wall, items/s and latency quantiles. *)
let reference_fields ~setup_times ~walls (rounds : Round.t list) =
  let items = List.fold_left (fun n r -> n + r.Round.attempted) 0 rounds in
  let total_wall = List.fold_left ( +. ) 0. walls in
  let lat =
    List.concat_map (fun (r : Round.t) -> r.Round.latencies) rounds
    |> List.fold_left
         (fun acc (k, l) ->
           let prev = Option.value ~default:[] (List.assoc_opt k acc) in
           (k, l @ prev) :: List.remove_assoc k acc)
         []
    |> List.sort compare
  in
  [ ("rounds", float_of_int (List.length rounds));
    ("round_wall_s", Round.median walls);
    ("items_per_s", float_of_int items /. total_wall);
    ("setup_s", Round.median setup_times) ]
  @ List.concat_map
      (fun (k, l) ->
        [ (k ^ ".count", float_of_int (List.length l));
          (k ^ ".p50_ms", Round.quantile 0.5 l);
          (k ^ ".p99_ms", Round.quantile 0.99 l) ])
      lat

(* ---- runs ------------------------------------------------------------- *)

(* One round: set-up and items.  Words are read after [run] returns,
   when every domain the round started has been joined. *)
let round (wl : 'a Round.workload) ~seed =
  let x, w_setup, t_setup =
    Trace.measure ~settle:wl.Round.settle (fun () -> wl.Round.setup ~seed)
  in
  let r, w_run, t_run = Trace.measure (fun () -> wl.Round.run x) in
  (x, r, w_setup +. w_run, t_setup, t_run)

(* Set-up alone, then torn down: its words and seconds. *)
let setup_cycle (wl : 'a Round.workload) ~seed =
  let x, w, t = Trace.measure (fun () -> wl.Round.setup ~seed) in
  let (), w', _ = Trace.measure (fun () -> wl.Round.discard x) in
  (w +. w', t)

let untraced (wl : 'a Round.workload) m =
  let t_start = Trace.now_ns () in
  let cycles = List.init setup_reps (fun _ -> setup_cycle wl ~seed:m.seed) in
  let setup_words = Round.median (List.map fst cycles) in
  let setup_times = List.map snd cycles in
  let peak = ref nan in
  let rec loop acc =
    let x, r, w, _, t_run = round wl ~seed:m.seed in
    wl.Round.discard x;
    if acc = [] then peak := Trace.peak_rss_mb ();
    let acc = (r, w, t_run) :: acc in
    if Trace.seconds_since t_start >= m.seconds then List.rev acc else loop acc
  in
  let rs = loop [] in
  let rounds = List.map (fun (r, _, _) -> r) rs in
  let walls = List.map (fun (_, _, t) -> t) rs in
  print_reference (reference_fields ~setup_times ~walls rounds);
  let checked = List.map verify rounds in
  (* the first round: later ones can differ (lazy set-up, warm caches),
     and how many of them fit depends on the host *)
  let alloc = (match rs with (_, w, _) :: _ -> w | [] -> nan) -. setup_words in
  print_result
    ~correct:(List.for_all snd checked)
    ~attempted:(List.fold_left (fun n r -> n + r.Round.attempted) 0 rounds)
    ~failed:(List.fold_left (fun n (f, _) -> n + f) 0 checked)
    [ ("alloc_mwords", alloc /. 1e6, "Mword");
      ("setup_mwords", setup_words /. 1e6, "Mword");
      ("peak_rss_mb", !peak, "MiB");
      ("setup_s", Round.median setup_times, "s") ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_mwords" then "Mword"
  else if ends "_kwords" then "kword"
  else if ends "_s" then "s"
  else "count"

let traced (wl : 'a Round.workload) m =
  let x, r_plain, w_plain, ts_plain, tr_plain = round wl ~seed:m.seed in
  wl.Round.discard x;
  Trace.reset ();
  Trace.enabled := true;
  let x, r, w_traced, ts_traced, tr_traced = round wl ~seed:m.seed in
  wl.Round.extra x;
  Trace.enabled := false;
  wl.Round.discard x;
  let f_plain, ok_plain = verify r_plain and f, ok = verify r in
  Common.mkdir_p Common.out_dir;
  Trace.write
    (Printf.sprintf "%s/trace-%s-seed%d.jsonl" Common.out_dir m.name m.seed);
  let kwords q = Round.quantile q r_plain.Round.item_words /. 1e3 in
  let item_metrics =
    if r_plain.Round.item_words = [] then []
    else
      [ ("run.item_p50_kwords", kwords 0.5);
        ("run.item_p90_kwords", kwords 0.9) ]
  in
  let metrics =
    Trace.summary ()
    @ item_metrics
    @ [ ("trace.overhead_mwords", (w_traced -. w_plain) /. 1e6);
        ("trace.overhead_s",
         ts_traced +. tr_traced -. (ts_plain +. tr_plain)) ]
    @ r_plain.Round.counts
  in
  print_reference
    (reference_fields ~setup_times:[ ts_plain ] ~walls:[ tr_plain ]
       [ r_plain ]);
  print_result
    ~correct:(ok_plain && ok)
    ~attempted:(r_plain.Round.attempted + r.Round.attempted)
    ~failed:(f_plain + f)
    (List.map (fun (k, v) -> (k, v, unit_of k)) metrics)

let execute wl m = if m.trace then traced wl m else untraced wl m

let usage () =
  prerr_endline
    "usage: main.exe --workload validate|litmus|seqd|fuzz --seed N \
     --seconds S --trace 0|1\n       main.exe --print-reproducer";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--print-reproducer" ] then begin
    print_endline (Lang.Stmt.to_string (Wl_validate.reproducer ()));
    exit 0
  end;
  let rec parse m = function
    | "--workload" :: v :: rest -> parse { m with name = v } rest
    | "--seed" :: v :: rest -> parse { m with seed = int_of_string v } rest
    | "--seconds" :: v :: rest ->
      parse { m with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      parse { m with trace = v = "1" } rest
    | [] -> m
    | _ -> usage ()
  in
  let m =
    try parse { name = ""; seed = 1; seconds = 10.; trace = false } args
    with Failure _ -> usage ()
  in
  match m.name with
  | "validate" -> execute Wl_validate.workload m
  | "litmus" -> execute Wl_litmus.workload m
  | "seqd" -> execute Wl_seqd.workload m
  | "fuzz" -> execute Wl_fuzz.workload m
  | _ -> usage ()
