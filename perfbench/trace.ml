(* Measurement around calls into the program: allocation, monotonic time,
   and, when tracing is on, spans and counters kept in memory.

   A span records a layer call: name, start, end, the enclosing span and
   the workload item it belongs to, plus the words allocated in between.
   Counters are added at the same boundaries.  Self time (and self
   allocation) of a span is its own figure minus what its child spans
   cover.  With tracing off, [span] is a plain call and [count] does
   nothing, so the untraced run pays only for the measurements the
   workloads take themselves. *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Words allocated so far: minor + major - promoted.  [Gc.quick_stat]
   only counts what the last minor collection saw, so one is forced first;
   it includes domains that have been joined, so reading it after a
   server or worker domain has ended counts that domain's allocation
   too. *)
let words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [measure f]: result, words allocated, seconds taken.  With [settle], a
   full major collection first leaves no garbage of earlier items in the
   heap, so the heap [f] grows to depends on [f] alone (per-item
   measurements of the single-domain workloads). *)
let measure ?(settle = false) f =
  if settle then Gc.full_major ();
  let w0 = words () and t0 = now_ns () in
  let x = f () in
  let dt = seconds_since t0 in
  (x, words () -. w0, dt)

(* Peak resident set size of this process, in MiB (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at top level *)
  item : int;  (** -1 outside any item *)
  t0 : int64;
  t1 : int64;
  w_total : float;
  mutable child_ns : int64;
  mutable child_words : float;
}

let enabled = ref false
let spans : span list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 64
let stack : span list ref = ref []
let next_id = ref 0
let current_item = ref (-1)
let labels : (int * string) list ref = ref []

let reset () =
  spans := [];
  labels := [];
  Hashtbl.reset counters;
  stack := [];
  next_id := 0;
  current_item := -1

let count name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

(* Run [f] as item [i]: spans opened inside carry the item's index. *)
let item i label f =
  if !enabled then labels := (i, label) :: !labels;
  let saved = !current_item in
  current_item := i;
  Fun.protect ~finally:(fun () -> current_item := saved) f

(* Record one call.  [name] is ["<layer>.<call>"]; [group] may refine it
   from the result (e.g. by the proof route a verdict took). *)
let span ?group name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    (* a placeholder on the stack collects the children's figures *)
    let slot =
      { id; name; parent; item = !current_item; t0 = 0L; t1 = 0L;
        w_total = 0.; child_ns = 0L; child_words = 0. }
    in
    stack := slot :: !stack;
    let w0 = words () and t0 = now_ns () in
    let finish x =
      let t1 = now_ns () and w1 = words () in
      stack := List.tl !stack;
      let name = match (group, x) with Some g, Some x -> g x | _ -> name in
      let s = { slot with name; t0; t1; w_total = w1 -. w0 } in
      (match !stack with
       | p :: _ ->
         p.child_ns <- Int64.add p.child_ns (Int64.sub t1 t0);
         p.child_words <- p.child_words +. s.w_total
       | [] -> ());
      spans := s :: !spans
    in
    match f () with
    | x ->
      finish (Some x);
      x
    | exception e ->
      finish None;
      raise e
  end

let self_s s = Int64.to_float (Int64.sub (Int64.sub s.t1 s.t0) s.child_ns) /. 1e9
let self_words s = s.w_total -. s.child_words

(* Per-layer figures: for every span name, [.calls], [.alloc_mwords] and
   [.busy_s] (self allocation and self time), plus every counter. *)
let summary () =
  let tbl = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      add (s.name ^ ".calls") 1.;
      add (s.name ^ ".alloc_mwords") (self_words s /. 1e6);
      add (s.name ^ ".busy_s") (self_s s))
    !spans;
  Hashtbl.iter add counters;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

(* Write the spans and counters as JSON lines. *)
let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"span\":%d,\"name\":%S,\"parent\":%d,\"item\":%d,\
             \"start_ns\":%Ld,\"end_ns\":%Ld,\"self_s\":%.9f,\
             \"words\":%.0f,\"self_words\":%.0f}\n"
            s.id s.name s.parent s.item s.t0 s.t1 (self_s s) s.w_total
            (self_words s))
        (List.rev !spans);
      List.iter
        (fun (i, l) -> Printf.fprintf oc "{\"item\":%d,\"label\":%S}\n" i l)
        (List.rev !labels);
      Hashtbl.iter
        (fun k v -> Printf.fprintf oc "{\"counter\":%S,\"value\":%.17g}\n" k v)
        counters)
