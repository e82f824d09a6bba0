(* The hardware-backend zoo (lib/backends): x86-TSO store buffers,
   ARMv8-flavoured local reordering, the shared MACHINE signature and
   registry, and the SC ⊆ TSO ⊆ ARMv8 inclusion chain the E15 grid
   asserts per row. *)

open Lang
module B = Backends.Backend
module Tso = Backends.Tso
module Armv8 = Backends.Armv8
module Registry = Backends.Registry
module Sc = Baselines.Sc

let threads = Parser.threads_of_string
let test name f = Alcotest.test_case name `Quick f
let check_bool msg = Alcotest.(check bool) msg
let check_int msg = Alcotest.(check int) msg
let ret vs = B.Ret (List.map (fun v -> (v, [])) vs)
let i n = Value.Int n
let mem b (r : B.result) = B.Behavior_set.mem b r.B.behaviors

let sb =
  "Y.store(rlx,1); a = Z.load(rlx); return a ||| \
   Z.store(rlx,1); b = Y.load(rlx); return b"

let sb_fence =
  "Y.store(rlx,1); fence(sc); a = Z.load(rlx); return a ||| \
   Z.store(rlx,1); fence(sc); b = Y.load(rlx); return b"

let mp_rlx =
  "X.store(rlx,1); Y.store(rlx,1); return 0 ||| \
   a = Y.load(rlx); if a == 1 { b = X.load(rlx) }; return 10*a+b"

let mp_rel_acq =
  "X.store(na,1); Y.store(rel,1); return 0 ||| \
   a = Y.load(acq); if a == 1 { b = X.load(na) }; return 10*a+b"

let mp_fences =
  "X.store(na,1); fence(rel); Y.store(rlx,1); return 0 ||| \
   a = Y.load(rlx); fence(acq); if a == 1 { b = X.load(na) }; return 10*a+b"

(* The acceptance separations: SB separates TSO from SC, MP-rlx
   separates ARMv8 from TSO. *)

let separation_tests =
  [
    test "SB both-zero: allowed under TSO, forbidden under SC" (fun () ->
        let tso = Tso.explore (threads sb) in
        check_bool "TSO allows 0,0" true (mem (ret [ i 0; i 0 ]) tso);
        let sc = Registry.Sc_machine.explore (threads sb) in
        check_bool "SC forbids 0,0" false (mem (ret [ i 0; i 0 ]) sc));
    test "SC fences restore SC on SB under TSO and ARMv8" (fun () ->
        let tso = Tso.explore (threads sb_fence) in
        check_bool "TSO forbids fenced 0,0" false (mem (ret [ i 0; i 0 ]) tso);
        let arm = Armv8.explore (threads sb_fence) in
        check_bool "ARMv8 forbids fenced 0,0" false
          (mem (ret [ i 0; i 0 ]) arm));
    test "MP-rlx stale read: allowed under ARMv8, forbidden under TSO"
      (fun () ->
        let arm = Armv8.explore (threads mp_rlx) in
        check_bool "ARMv8 allows a=1,b=0" true (mem (ret [ i 0; i 10 ]) arm);
        let tso = Tso.explore (threads mp_rlx) in
        check_bool "TSO forbids a=1,b=0" false (mem (ret [ i 0; i 10 ]) tso));
    test "MP-rel-acq: the release view forbids the stale read under ARMv8"
      (fun () ->
        let arm = Armv8.explore (threads mp_rel_acq) in
        check_bool "ARMv8 forbids a=1,b=0" false
          (mem (ret [ i 0; i 10 ]) arm);
        check_bool "ARMv8 allows a=1,b=1" true (mem (ret [ i 0; i 11 ]) arm));
    test "MP-fences: full barriers forbid the stale read under ARMv8"
      (fun () ->
        let arm = Armv8.explore (threads mp_fences) in
        check_bool "ARMv8 forbids a=1,b=0" false
          (mem (ret [ i 0; i 10 ]) arm));
  ]

let machine_tests =
  [
    test "TSO forwards its own buffered store" (fun () ->
        let r = Tso.explore (threads "X.store(rlx,1); a = X.load(rlx); return a") in
        check_bool "reads 1" true (mem (ret [ i 1 ]) r);
        check_int "exactly one behavior" 1 (B.Behavior_set.cardinal r.B.behaviors));
    test "ARMv8 per-location coherence: own writes are not reordered"
      (fun () ->
        let r =
          Armv8.explore
            (threads "X.store(rlx,1); X.store(rlx,2); return 0 ||| \
                      a = X.load(rlx); b = X.load(rlx); return 10*a+b")
        in
        (* reads of one location are coherent: never 2 then 1 *)
        check_bool "no 2,1" false (mem (ret [ i 0; i 21 ]) r));
    test "RMWs are SC points: a CAS lock still excludes under TSO/ARMv8"
      (fun () ->
        let lock =
          "a = 0; while a == 0 { a = cas(L, 0, 1) }; X.store(na, 1); \
           L.store(rel, 0) ||| \
           b = 0; while b == 0 { b = cas(L, 0, 1) }; c = X.load(na); \
           L.store(rel, 0); return c"
        in
        let tso = Tso.explore (threads lock) in
        check_bool "TSO race-free" false tso.B.races;
        let arm = Armv8.explore (threads lock) in
        check_bool "ARMv8 race-free" false arm.B.races);
    test "race verdicts agree with the SC baseline" (fun () ->
        let racy = "a = X.load(na); return a ||| X.store(na,1); return 0" in
        let tso = Tso.explore (threads racy) in
        let arm = Armv8.explore (threads racy) in
        check_bool "TSO races" true tso.B.races;
        check_bool "ARMv8 races" true arm.B.races;
        let sync = threads mp_rel_acq in
        check_bool "TSO rel-acq race-free" false (Tso.explore sync).B.races;
        check_bool "ARMv8 rel-acq race-free" false (Armv8.explore sync).B.races);
    test "UB is ⊥ under every backend" (fun () ->
        let progs = threads "abort ||| return 0" in
        List.iter
          (fun (module M : B.MACHINE) ->
            check_bool (M.name ^ " has ⊥") true
              (mem B.Bot (M.explore progs)))
          Registry.all);
    test "budget exhaustion escapes as Engine.Budget.Exhausted" (fun () ->
        let budget = Engine.Budget.make ~max_states:5 () in
        check_bool "raises" true
          (try
             ignore (Tso.explore ~budget (threads sb));
             false
           with Engine.Budget.Exhausted _ -> true));
  ]

let registry_tests =
  [
    test "registry: every name resolves, unknown names do not" (fun () ->
        check_bool "five machines" true (List.length Registry.all = 5);
        List.iter
          (fun name ->
            check_bool ("find " ^ name) true
              (Option.is_some (Registry.find name)))
          Registry.names;
        check_bool "unknown rejected" true (Option.is_none (Registry.find "sc2")));
    test "refines across backends: TSO target vs SC source refuted on SB"
      (fun () ->
        let progs = threads sb in
        let sc = Registry.Sc_machine.explore progs in
        let tso = Tso.explore progs in
        check_bool "SC ⊑ TSO as sets" true (B.subset ~small:sc ~big:tso);
        check_bool "tgt TSO refines src TSO" true (B.refines ~src:tso ~tgt:tso);
        check_bool "tgt TSO does not refine src SC" false
          (B.refines ~src:sc ~tgt:tso));
  ]

(* The inclusion chain on the whole litmus catalog. *)
let chain_on_catalog =
  test "SC ⊆ TSO ⊆ ARMv8 on the litmus catalog" (fun () ->
      List.iter
        (fun (c : Litmus.Catalog.concurrent) ->
          let progs = threads c.Litmus.Catalog.threads in
          let sc = Registry.Sc_machine.explore ~max_states:50_000 progs in
          let tso = Tso.explore ~max_states:50_000 progs in
          let arm = Armv8.explore ~max_states:50_000 progs in
          if not (sc.B.truncated || tso.B.truncated || arm.B.truncated) then begin
            check_bool (c.Litmus.Catalog.cname ^ ": SC ⊆ TSO") true
              (B.subset ~small:sc ~big:tso);
            check_bool (c.Litmus.Catalog.cname ^ ": TSO ⊆ ARMv8") true
              (B.subset ~small:tso ~big:arm)
          end)
        Litmus.Catalog.concurrent_programs)

(* The qcheck inclusion property on generated two-thread programs:
   budget-bounded, truncated explorations skipped. *)
let gen_cfg =
  {
    Gen.default_config with
    Gen.na_locs = [ Loc.make "X" ];
    at_locs = [ Loc.make "Y"; Loc.make "Z" ];
    regs = [ Reg.make "a"; Reg.make "b" ];
    values = [ 0; 1 ];
    allow_loops = false;
  }

let pair_gen : (Stmt.t * Stmt.t) QCheck.Gen.t =
 fun rand ->
  (Gen.gen_program gen_cfg rand ~size:3, Gen.gen_program gen_cfg rand ~size:3)

let chain_qcheck =
  QCheck.Test.make ~name:"SC ⊆ TSO ⊆ ARMv8 on generated programs" ~count:30
    (QCheck.make
       ~print:(fun (s, t) -> Stmt.to_string s ^ " ||| " ^ Stmt.to_string t)
       pair_gen)
    (fun (s, t) ->
      let progs = [ s; t ] in
      let max_states = 30_000 in
      let sc = Registry.Sc_machine.explore ~max_states progs in
      let tso = Tso.explore ~max_states progs in
      let arm = Armv8.explore ~max_states progs in
      sc.B.truncated || tso.B.truncated || arm.B.truncated
      || (B.subset ~small:sc ~big:tso && B.subset ~small:tso ~big:arm))

(* The exploration work of the SC, catch-fire, TSO and ARMv8 machines,
   pinned per program: distinct states, truncation, the race verdict and
   the behavior-set size, plus SC's strict-race locations (the DRF-SC and
   DRF-LOCK premises).  A change to a machine's state equivalence, or to
   where truncation falls, shows up here.  One thread has no
   happens-before, so loop.wm's release loop closes after a few states
   under SC, catch-fire and TSO; ARMv8 still truncates it, because its
   per-location history grows by one message per iteration and the
   exploration turns quadratic (20 000 states take over a minute), so it
   explores it at 2 000 states.  Beside a second thread the release
   store ticks a vector clock that the key compares, and loop.wm |||
   return 0 never closes under any machine.  The grid programs are all
   race-free, so two more rows pin a racy program and a CAS lock (the
   RMW path). *)
let loop_wm = "a = 0; while (a < 2) { Y.store(rel, 1); a = 0 }; return a"

let racy_mp =
  "X.store(na,1); Y.store(rlx,1); return 0 ||| \
   a = Y.load(rlx); b = X.load(na); return 10*a+b"

let cas_lock =
  "a = 0; while a == 0 { a = cas(L, 0, 1) }; X.store(na, 1); \
   L.store(rel, 0) ||| \
   b = 0; while b == 0 { b = cas(L, 0, 1) }; c = X.load(na); \
   L.store(rel, 0); return c"

let work_row ~max_states (name, text) =
  let progs = threads text in
  let machines =
    List.map
      (fun m ->
        let (module M : B.MACHINE) = Option.get (Registry.find m) in
        let r = M.explore ~max_states:(max_states m) progs in
        Fmt.str "%s %d %b %b %d" m r.B.states r.B.truncated r.B.races
          (B.Behavior_set.cardinal r.B.behaviors))
      [ "sc"; "catchfire"; "tso"; "armv8" ]
  in
  let sc = Sc.explore ~max_states:(max_states "sc") progs in
  Fmt.str "%s: %s; strict {%s}" name (String.concat ", " machines)
    (String.concat "," (List.map Loc.name (Loc.Set.elements sc.Sc.strict_race_locs)))

let pinned_work_expected =
  [
    "SB-rlx: sc 28 false false 3, catchfire 28 false false 3, tso 77 false false 4, armv8 77 false false 4; strict {Y,Z}";
    "SB-sc-fence: sc 50 false false 3, catchfire 50 false false 3, tso 61 false false 3, armv8 69 false false 3; strict {Y,Z}";
    "MP-rel-acq: sc 24 false false 2, catchfire 24 false false 2, tso 28 false false 2, armv8 34 false false 2; strict {Y}";
    "MP-rlx: sc 24 false false 2, catchfire 24 false false 2, tso 44 false false 2, armv8 64 false false 3; strict {Y,Z}";
    "MP-fences: sc 44 false false 2, catchfire 44 false false 2, tso 65 false false 2, armv8 89 false false 2; strict {Y}";
    "LB-rlx: sc 28 false false 3, catchfire 28 false false 3, tso 56 false false 3, armv8 56 false false 3; strict {Y,Z}";
    "IRIW-rlx: sc 652 false false 15, catchfire 652 false false 15, tso 1116 false false 15, armv8 1132 false false 16; strict {Y,Z}";
    "R-rlx: sc 354 false false 13, catchfire 354 false false 13, tso 807 false false 14, armv8 1071 false false 14; strict {Y,Z}";
    "S-rlx: sc 354 false false 13, catchfire 354 false false 13, tso 754 false false 13, armv8 946 false false 14; strict {Y,Z}";
    "WRC-rlx: sc 138 false false 7, catchfire 138 false false 7, tso 254 false false 7, armv8 262 false false 8; strict {Y,Z}";
    "CoRR-rlx: sc 22 false false 3, catchfire 22 false false 3, tso 30 false false 3, armv8 30 false false 3; strict {Y}";
    "racy-MP: sc 28 false true 3, catchfire 28 false true 4, tso 52 false true 3, armv8 70 false true 4; strict {X,Y}";
    "cas-lock: sc 79 false false 2, catchfire 79 false false 2, tso 86 false false 2, armv8 86 false false 2; strict {L}";
    "loop.wm: sc 6 false false 0, catchfire 6 false false 0, tso 6 false false 0, armv8 2000 true false 0; strict {}";
    "loop.wm ||| return 0: sc 20000 true false 0, catchfire 20000 true false 0, tso 20000 true false 0, armv8 2000 true false 0; strict {}";
  ]

let pinned_work =
  test "pinned exploration work on the grid programs and loop.wm" (fun () ->
      let grid =
        List.map
          (fun (ge : Litmus.Catalog.grid_entry) ->
            let c = ge.Litmus.Catalog.g in
            work_row ~max_states:(fun _ -> 20_000)
              (c.Litmus.Catalog.cname, c.Litmus.Catalog.threads))
          Litmus.Catalog.grid_programs
        @ List.map
            (work_row ~max_states:(fun _ -> 20_000))
            [ ("racy-MP", racy_mp); ("cas-lock", cas_lock) ]
      in
      let loops =
        List.map
          (work_row
             ~max_states:(fun m -> if m = "armv8" then 2_000 else 20_000))
          [
            ("loop.wm", loop_wm);
            ("loop.wm ||| return 0", loop_wm ^ " ||| return 0");
          ]
      in
      Alcotest.(check (list string)) "work" pinned_work_expected (grid @ loops))

(* One thread has no happens-before.  A fuzz-campaign program whose
   inner loop never exits stores with release on every iteration; with
   no clocks in a one-thread key it explores to completion, with no
   behavior and no race, instead of running to the state cap. *)
let campaign_release_loop =
  "Z.store(rel, 1); Y.store(rlx, 2); a = 0; \
   while (a < 2) { c = 0; while (c < 2) { c = W.load(na); c = 0; \
   Y.store(rel, 2); c = (c + 1) }; a = (a + 1) }; \
   return (((0 + (1 * a)) + (2 * b)) + (3 * c))"

let solo_release_loop_closes =
  test "one-thread release loop explores to completion under SC and TSO"
    (fun () ->
      let progs = threads campaign_release_loop in
      let sc = Sc.explore ~max_states:20_000 progs in
      check_bool "SC not truncated" false sc.Sc.truncated;
      check_int "SC behaviors" 0 (Sc.Behavior_set.cardinal sc.Sc.behaviors);
      check_bool "SC races" false sc.Sc.races;
      check_bool "SC strict races" false sc.Sc.strict_races;
      let tso = Tso.explore ~max_states:20_000 progs in
      check_bool "TSO not truncated" false tso.B.truncated;
      check_int "TSO behaviors" 0 (B.Behavior_set.cardinal tso.B.behaviors);
      check_bool "TSO races" false tso.B.races)

(* The clock-free one-thread component against full clocks: a loop-free
   program run alone, and beside an idle second thread (which makes the
   machines keep vector clocks), has the same thread-0 behaviors and no
   race. *)
let solo_cfg = { gen_cfg with Gen.allow_rmw = true }

let project =
  B.Behavior_set.map (function B.Ret (r :: _) -> B.Ret [ r ] | b -> b)

let solo_matches_clocks =
  QCheck.Test.make
    ~name:"one-thread runs match the same thread beside an idle one"
    ~count:60
    (QCheck.make ~print:Stmt.to_string (fun rand ->
         Gen.gen_program solo_cfg rand ~size:6))
    (fun p ->
      let idle = Parser.stmt_of_string "return 0" in
      let sc1 = Sc.explore [ p ] and sc2 = Sc.explore [ p; idle ] in
      let same_sc =
        B.Behavior_set.equal sc1.Sc.behaviors (project sc2.Sc.behaviors)
        && (not sc1.Sc.races) && (not sc2.Sc.races)
        && Loc.Set.is_empty sc1.Sc.strict_race_locs
        && Loc.Set.is_empty sc2.Sc.strict_race_locs
      in
      let same (module M : B.MACHINE) =
        let r1 = M.explore [ p ] and r2 = M.explore [ p; idle ] in
        B.Behavior_set.equal r1.B.behaviors (project r2.B.behaviors)
        && (not r1.B.races) && not r2.B.races
      in
      same_sc && same (module Registry.Tso_machine)
      && same (module Registry.Armv8_machine))

let suite =
  separation_tests @ machine_tests @ registry_tests
  @ [ pinned_work; chain_on_catalog; QCheck_alcotest.to_alcotest chain_qcheck ]
  @ [ solo_release_loop_closes; QCheck_alcotest.to_alcotest solo_matches_clocks ]
