(** seqd request evaluation over the existing checkers (see .mli). *)

open Lang

type t = {
  cache : Cache.t;
  metrics : Engine.Metrics.t;
  default_budget : Engine.Budget.spec;
}

let create ?cache_dir ?(mem_capacity = 4096)
    ?(default_budget = Engine.Budget.spec_unlimited) () =
  {
    cache = Cache.create ?dir:cache_dir ~mem_capacity ();
    metrics = Engine.Metrics.create ();
    default_budget;
  }

let metrics t = t.metrics
let cache t = t.cache

(* ------------------------------------------------------------------ *)
(* budgets and small helpers                                           *)
(* ------------------------------------------------------------------ *)

(* The request's own budget wins field-wise over the handler default. *)
let spec_of t (b : Proto.budget) : Engine.Budget.spec =
  {
    Engine.Budget.timeout_ms =
      (match b.Proto.timeout_ms with
       | Some _ as ms -> ms
       | None -> t.default_budget.Engine.Budget.timeout_ms);
    max_states =
      (match b.Proto.max_states with
       | Some _ as n -> n
       | None -> t.default_budget.Engine.Budget.max_states);
    max_fuel = t.default_budget.Engine.Budget.max_fuel;
  }

let values_of = function
  | [] -> Domain.default_values
  | vs -> List.map (fun n -> Value.Int n) vs

let of_outcome (o : Optimizer.Validate.outcome) : Proto.verdict * Proto.origin option =
  let definite v = (v, Some (Optimizer.Validate.provenance o.proof)) in
  match o.answer with
  | Refines_simple -> definite Proto.Refines_simple
  | Refines_advanced -> definite Proto.Refines_advanced
  | Refuted -> definite Proto.Refuted
  | Undecided reason -> (Proto.Unknown reason, None)

(* A computed check result: [check] runs under a fresh budget from the
   request's, and a definite answer counts its proof route
   ("origin.static", "origin.static_abs", "origin.enumerated"). *)
let computed t (b : Proto.budget) check : Proto.check_result =
  let budget = Engine.Budget.start (spec_of t b) in
  let verdict, origin =
    match Engine.Verdict.capture (fun () -> check ~budget) with
    | Ok o -> of_outcome o
    | Error reason ->
      (Proto.Unknown (Engine.Verdict.reason_to_string reason), None)
  in
  let metric o = String.map (function '-' -> '_' | c -> c) o in
  Option.iter
    (fun o ->
      Engine.Metrics.incr t.metrics
        ("origin." ^ metric (Proto.origin_to_string o)))
    origin;
  { verdict; origin; tier = Proto.Computed;
    states = Engine.Budget.states_used budget }

let count_verdict t (v : Proto.verdict) =
  Engine.Metrics.incr t.metrics
    (match v with
     | Proto.Refines_simple -> "verdict.refines_simple"
     | Proto.Refines_advanced -> "verdict.refines_advanced"
     | Proto.Refuted -> "verdict.refuted"
     | Proto.Unknown _ -> "verdict.unknown")

(* ------------------------------------------------------------------ *)
(* the cache wrapper                                                   *)
(* ------------------------------------------------------------------ *)

(* Serve [key] from the cache, else compute, count the tier, and store
   the response when [cacheable] says the answer is definite.  The
   cached payload is the encoded response with tier [Computed]; hits are
   re-tagged with the tier they were served from, so proof provenance
   survives across tiers. *)
let cached t ~key ~cacheable compute =
  match Cache.find t.cache key with
  | Some (payload, hit) ->
    let tier : Proto.tier =
      match hit with Cache.Hit_mem -> Proto.Mem | Cache.Hit_disk -> Proto.Disk
    in
    (match Proto.decode_response payload with
     | resp ->
       Engine.Metrics.incr t.metrics
         (match tier with
          | Proto.Mem -> "tier.mem"
          | _ -> "tier.disk");
       Proto.with_tier resp tier
     | exception Proto.Error _ ->
       (* digest-valid but undecodable payload (format skew): recompute *)
       Engine.Metrics.incr t.metrics "tier.computed";
       let resp = compute () in
       if cacheable resp then
         Cache.add t.cache key (Proto.encode_response resp);
       resp)
  | None ->
    Engine.Metrics.incr t.metrics "tier.computed";
    let resp = compute () in
    if cacheable resp then Cache.add t.cache key (Proto.encode_response resp);
    resp

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_key (c : Proto.check) ~(src : Stmt.t) ~(tgt : Stmt.t) ~values =
  Fingerprint.key
    [
      "check";
      Fingerprint.canonical_stmt src;
      Fingerprint.canonical_stmt tgt;
      Fingerprint.canonical_values values;
      (if c.Proto.fast_path then "fp" else "nofp");
      (* per-backend verdicts must never be served for one another *)
      "backend:" ^ c.Proto.backend;
    ]

let serve_check t (c : Proto.check) (b : Proto.budget) : Proto.check_result =
  match
    ( Parser.stmt_of_string c.Proto.src,
      Parser.stmt_of_string c.Proto.tgt )
  with
  | exception Parser.Error msg ->
    let cr : Proto.check_result =
      {
        verdict = Proto.Unknown (Printf.sprintf "parse: %s" msg);
        origin = None;
        tier = Proto.Computed;
        states = 0;
      }
    in
    Engine.Metrics.incr t.metrics "tier.computed";
    count_verdict t cr.Proto.verdict;
    cr
  | src, tgt ->
    let values = values_of c.Proto.values in
    let key = check_key c ~src ~tgt ~values in
    let resp =
      cached t ~key
        ~cacheable:(function
          | Proto.Checked { verdict = Proto.Unknown _; _ } -> false
          | Proto.Checked _ -> true
          | _ -> false)
        (fun () ->
          Proto.Checked
            (computed t b (fun ~budget ->
                 Optimizer.Validate.run ~values ~backend:c.Proto.backend
                   ~fast_path:c.Proto.fast_path ~budget ~src ~tgt ())))
    in
    (match resp with
     | Proto.Checked cr ->
       count_verdict t cr.Proto.verdict;
       cr
     | _ ->
       (* unreachable: check keys only ever store Checked payloads *)
       {
         verdict = Proto.Unknown "cache: foreign payload";
         origin = None;
         tier = Proto.Computed;
         states = 0;
       })

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let serve_lint t ~prog ~hints : Proto.response =
  match Parser.threads_of_string prog with
  | exception Parser.Error msg -> Proto.Err (Printf.sprintf "parse: %s" msg)
  | threads ->
    let key =
      Fingerprint.key
        [
          "lint";
          Fingerprint.canonical_threads threads;
          (if hints then "hints" else "nohints");
        ]
    in
    cached t ~key
      ~cacheable:(function Proto.Linted _ -> true | _ -> false)
      (fun () ->
        let diags = Optimizer.Lint.lint ~hints threads in
        let count sev =
          List.length
            (List.filter (fun d -> d.Optimizer.Lint.sev = sev) diags)
        in
        Proto.Linted
          {
            errors = count Optimizer.Lint.Error;
            warnings = count Optimizer.Lint.Warning;
            hints = count Optimizer.Lint.Hint;
            rendered =
              Optimizer.Lint.render ~threads:(List.length threads) diags;
            tier = Proto.Computed;
          })

(* ------------------------------------------------------------------ *)
(* optimize                                                            *)
(* ------------------------------------------------------------------ *)

let serve_optimize t ~prog ~values ~fast_path (b : Proto.budget) :
    Proto.response =
  match Parser.stmt_of_string prog with
  | exception Parser.Error msg -> Proto.Err (Printf.sprintf "parse: %s" msg)
  | input ->
    let values = values_of values in
    let key =
      Fingerprint.key
        [
          "optimize";
          Fingerprint.canonical_stmt input;
          Fingerprint.canonical_values values;
          (if fast_path then "fp" else "nofp");
        ]
    in
    cached t ~key
      ~cacheable:(function
        | Proto.Optimized { result = { verdict = Proto.Unknown _; _ }; _ } ->
          false
        | Proto.Optimized _ -> true
        | _ -> false)
      (fun () ->
        let report = Optimizer.Driver.optimize input in
        let result =
          computed t b (fun ~budget ->
              Optimizer.Validate.run ~values ~fast_path ~budget
                ~src:report.Optimizer.Driver.input
                ~tgt:report.Optimizer.Driver.output ())
        in
        match result.Proto.verdict with
        | Proto.Unknown _ ->
          (* an undecided validation hands back the input unchanged *)
          Proto.Optimized { output = prog; result; passes = [] }
        | _ ->
          Proto.Optimized
            {
              output = Stmt.to_string report.Optimizer.Driver.output;
              result;
              passes =
                List.map
                  (fun (p : Optimizer.Driver.pass_report) ->
                    ( Optimizer.Driver.pass_name p.Optimizer.Driver.pass,
                      p.Optimizer.Driver.rewrites ))
                  report.Optimizer.Driver.passes;
            })

(* ------------------------------------------------------------------ *)
(* litmus                                                              *)
(* ------------------------------------------------------------------ *)

let serve_litmus t ~prog ~(params : Proto.litmus_params) (b : Proto.budget) :
    Proto.response =
  match Parser.threads_of_string prog with
  | exception Parser.Error msg -> Proto.Err (Printf.sprintf "parse: %s" msg)
  | threads ->
    let mparams =
      {
        Promising.Thread.default_params with
        promise_budget = params.Proto.promises;
        batch_bound = params.Proto.batch;
        max_states = params.Proto.lit_max_states;
      }
    in
    let key =
      Fingerprint.key
        [
          "litmus";
          Fingerprint.canonical_threads threads;
          Promising.Machine.params_fingerprint mparams;
          (* params_fingerprint covers certification-relevant fields
             only; max_states changes truncation, so key it too *)
          string_of_int mparams.Promising.Thread.max_states;
        ]
    in
    cached t ~key
      ~cacheable:(function Proto.Litmus_result _ -> true | _ -> false)
      (fun () ->
        let budget = Engine.Budget.start (spec_of t b) in
        match
          Engine.Verdict.capture (fun () ->
              Promising.Machine.explore ~params:mparams ~budget threads)
        with
        | Ok r ->
          Proto.Litmus_result
            {
              behaviors =
                Fmt.str "%a" Promising.Machine.pp_behaviors
                  r.Promising.Machine.behaviors;
              states = r.Promising.Machine.states;
              races = r.Promising.Machine.races;
              truncated = r.Promising.Machine.truncated;
              tier = Proto.Computed;
            }
        | Error reason ->
          Proto.Err
            (Printf.sprintf "UNKNOWN(%s)"
               (Engine.Verdict.reason_to_string reason)))

(* ------------------------------------------------------------------ *)
(* stats + dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let stats_snapshot t =
  let s = Cache.stats t.cache in
  Engine.Metrics.render t.metrics
  ^ Printf.sprintf
      "cache.mem_entries %d\ncache.hits_mem %d\ncache.hits_disk %d\n\
       cache.misses %d\ncache.writes %d\n"
      (Cache.mem_size t.cache) s.Cache.hits_mem s.Cache.hits_disk
      s.Cache.misses s.Cache.writes

let req_kind : Proto.request -> string = function
  | Proto.Ping -> "ping"
  | Proto.Check _ -> "check"
  | Proto.Batch _ -> "batch"
  | Proto.Lint _ -> "lint"
  | Proto.Optimize _ -> "optimize"
  | Proto.Litmus _ -> "litmus"
  | Proto.Stats -> "stats"
  | Proto.Shutdown -> "shutdown"

let handle ?pool t (req : Proto.request) : Proto.response =
  let kind = req_kind req in
  Engine.Metrics.incr t.metrics ("req." ^ kind);
  let resp, ms =
    Engine.Stats.timed (fun () ->
        try
          match req with
          | Proto.Ping -> Proto.Pong
          | Proto.Check (c, b) -> Proto.Checked (serve_check t c b)
          | Proto.Batch (cs, b) ->
            (* one parallel sweep over the engine pool; each item is
               served through the cache independently (Cache and Metrics
               are domain-safe) *)
            Proto.Batched
              (Engine.Sweep.run ?pool ~f:(fun c -> serve_check t c b) cs)
          | Proto.Lint { prog; hints } -> serve_lint t ~prog ~hints
          | Proto.Optimize (o, b) ->
            serve_optimize t ~prog:o.Proto.oprog ~values:o.Proto.ovalues
              ~fast_path:o.Proto.ofast_path b
          | Proto.Litmus (l, b) ->
            serve_litmus t ~prog:l.Proto.lprog ~params:l.Proto.lparams b
          | Proto.Stats -> Proto.Stats_result (stats_snapshot t)
          | Proto.Shutdown -> Proto.Bye
        with exn ->
          (* the handler is total: an escaping exception would take the
             daemon down with it *)
          Proto.Err (Printf.sprintf "internal: %s" (Printexc.to_string exn)))
  in
  Engine.Metrics.observe t.metrics ("latency." ^ kind) ms;
  resp
