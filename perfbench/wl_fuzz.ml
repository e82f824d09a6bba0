(* fuzz: one guided campaign ([Fuzz.Campaign.run]) with the fixed seed
   [campaign_seed]: coverage on, default oracles and phases, shrinking on,
   one job, no wall-clock budget, the default 20 000-state cap per check,
   [max_execs] programs and a fresh corpus directory.  All five planted
   miscompilations are refuted within these execs.  The campaign seed is
   fixed: the benchmark's seed does not change the campaign, since every
   figure it reports is a function of the campaign seed alone.

   The traced run also re-checks the persisted corpus with every oracle
   ([Fuzz.Oracle.check]) and explores every corpus program under the sc,
   catchfire, tso and armv8 machines, to split the work by layer. *)

module Cp = Fuzz.Campaign

let campaign_seed = 2
let max_execs = 150
let max_states = 20_000
let budget = Engine.Budget.spec ~max_states ()

type session = { dir : string }

(* Set-up: a fresh corpus directory, which the campaign creates.  A
   campaign has no set-up work of its own; the store is written at its
   end.  (Creating the directory here made [setup_s] a file-system
   timing that moved tenfold between processes.) *)
let setup ~seed:_ = { dir = Common.fresh_path "fuzz" }
let discard s = Common.remove_tree s.dir

let run s =
  let r =
    Cp.run ~jobs:1 ~budget ~shrink:true ~guided:true ~corpus_dir:s.dir
      ~seed:campaign_seed ~max_execs ()
  in
  let refute_execs =
    List.fold_left
      (fun m (_, f) ->
        match f with Some f -> max m f.Cp.index | None -> m)
      0 r.Cp.planted
  in
  let cov = Option.get r.Cp.cov in
  let campaign =
    [ ("execs", r.Cp.requested_execs); ("unique", r.Cp.unique_execs);
      ("dedup", r.Cp.dedup_dropped); ("shrink_steps", r.Cp.shrink_steps_total);
      ("unknowns", r.Cp.unknowns); ("admitted", cov.Cp.cov_admitted);
      ("corpus", cov.Cp.corpus_size); ("refute_execs", refute_execs);
      ("coverage_points", cov.Cp.cov_points) ]
  in
  let verify () =
    let errors = ref [] in
    List.iter
      (fun (v, f) ->
        Round.check errors (f <> None) "planted %s survived" v)
      r.Cp.planted;
    List.iter
      (fun (f : Cp.finding) ->
        Round.check errors false "finding by %s at exec %d" f.Cp.oracle f.Cp.index)
      r.Cp.findings;
    Round.check errors (r.Cp.quarantined = 0) "%d checks quarantined"
      r.Cp.quarantined;
    (0, List.rev !errors)
  in
  { Round.empty with
    attempted = r.Cp.requested_execs;
    verify;
    counts =
      List.map (fun (k, v) -> ("fuzz.campaign." ^ k, float_of_int v)) campaign }

let machines = [ "sc"; "catchfire"; "tso"; "armv8" ]

let extra s =
  let store = Fuzz.Persist.load ~dir:s.dir in
  List.iteri
    (fun i p ->
      Trace.item i (Lang.Fingerprint.stmt p) (fun () ->
          List.iter
            (fun kind ->
              Trace.span ("fuzz.oracle." ^ Fuzz.Oracle.name kind) (fun () ->
                  try
                    ignore
                      (Fuzz.Oracle.check kind
                         ~budget:(Engine.Budget.start budget) p)
                  with Engine.Budget.Exhausted _ -> ()))
            Fuzz.Oracle.all;
          List.iter
            (fun name ->
              let (module M : Backends.Backend.MACHINE) =
                Option.get (Backends.Registry.find name)
              in
              let layer = "backends." ^ name ^ ".explore" in
              let r = Trace.span layer (fun () -> M.explore ~max_states [ p ]) in
              Trace.count (layer ^ ".states")
                (float_of_int r.Backends.Backend.states))
            machines))
    store.Fuzz.Persist.corpus

let workload = { Round.settle = false; setup; run; discard; extra }
