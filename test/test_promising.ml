(* PS_na (§5): exhaustive bounded exploration of the paper's concurrent
   examples and the classic litmus shapes the promising semantics is
   calibrated on. *)

open Lang
module M = Promising.Machine

let params = Promising.Thread.default_params

let explore ?(params = params) src =
  M.explore ~params (Parser.threads_of_string src)

let ret vs = M.Ret (List.map (fun v -> (v, [])) vs)
let i n = Value.Int n
let u = Value.Undef

let has r b = M.Behavior_set.mem b r.M.behaviors
let complete r = not r.M.truncated

let test name f = Alcotest.test_case name `Quick f
let check_bool msg = Alcotest.(check bool) msg

let suite =
  [
    test "SB-rlx allows both-zero" (fun () ->
        let r = explore
            "X.store(rlx,1); a = Y.load(rlx); return a ||| \
             Y.store(rlx,1); b = X.load(rlx); return b"
        in
        check_bool "complete" true (complete r);
        check_bool "0,0" true (has r (ret [ i 0; i 0 ]));
        check_bool "1,1" true (has r (ret [ i 1; i 1 ])));
    test "SB-rel-acq still allows both-zero" (fun () ->
        let r = explore
            "X.store(rel,1); a = Y.load(acq); return a ||| \
             Y.store(rel,1); b = X.load(acq); return b"
        in
        check_bool "0,0" true (has r (ret [ i 0; i 0 ])));
    test "MP-rel-acq forbids stale and racy reads" (fun () ->
        let r = explore
            "X.store(na,1); Y.store(rel,1); return 0 ||| \
             a = Y.load(acq); if a == 1 { b = X.load(na) }; return 10*a+b"
        in
        check_bool "complete" true (complete r);
        check_bool "synchronised" true (has r (ret [ i 0; i 11 ]));
        check_bool "no stale" false (has r (ret [ i 0; i 10 ]));
        check_bool "no undef" false (has r (ret [ i 0; u ]));
        check_bool "no UB" false (has r M.Bot));
    test "MP-rlx allows racy undef" (fun () ->
        let r = explore
            "X.store(na,1); Y.store(rlx,1); return 0 ||| \
             a = Y.load(rlx); if a == 1 { b = X.load(na) }; return b"
        in
        check_bool "undef read" true (has r (ret [ i 0; u ]));
        check_bool "no UB" false (has r M.Bot));
    test "LB-rlx allows 1,1 (promises)" (fun () ->
        let r = explore
            "a = X.load(rlx); Y.store(rlx,1); return a ||| \
             b = Y.load(rlx); X.store(rlx,1); return b"
        in
        check_bool "1,1" true (has r (ret [ i 1; i 1 ])));
    test "LB-data forbids thin-air" (fun () ->
        let r = explore
            "a = X.load(rlx); Y.store(rlx,a); return a ||| \
             b = Y.load(rlx); X.store(rlx,b); return b"
        in
        check_bool "complete" true (complete r);
        check_bool "only 0,0" true
          (M.Behavior_set.equal r.M.behaviors
             (M.Behavior_set.singleton (ret [ i 0; i 0 ]))));
    test "write-write race is UB" (fun () ->
        let r = explore "X.store(na,1); return 0 ||| X.store(na,2); return 0" in
        check_bool "⊥" true (has r M.Bot));
    test "atomic-nonatomic write race is UB" (fun () ->
        let r = explore "X.store(na,1); return 0 ||| X.store(rlx,2); return 0" in
        check_bool "⊥" true (has r M.Bot));
    test "write-read race reads undef, no UB" (fun () ->
        let r = explore "a = X.load(na); return a ||| X.store(na,1); return 0" in
        check_bool "undef" true (has r (ret [ u; i 0 ]));
        check_bool "no ⊥" false (has r M.Bot));
    test "atomic accesses to the same location do not race" (fun () ->
        let r = explore "a = X.load(rlx); return a ||| X.store(rlx,1); return 0" in
        check_bool "no undef" false (has r (ret [ u; i 0 ]));
        check_bool "no ⊥" false (has r M.Bot));
    test "coherence: per-location order (CoRR)" (fun () ->
        let r = explore "X.store(rlx,1); X.store(rlx,2); a = X.load(rlx); return a" in
        check_bool "reads own latest" true
          (M.Behavior_set.equal r.M.behaviors (M.Behavior_set.singleton (ret [ i 2 ]))));
    test "Example 5.1: promise + racy na read" (fun () ->
        let r = explore
            "a = X.load(na); Y.store(rlx,1); return a ||| \
             b = Y.load(rlx); if b == 1 { X.store(na,1) }; return b"
        in
        check_bool "a=undef, b=1" true (has r (ret [ u; i 1 ])));
    test "CAS success and failure" (fun () ->
        let r = explore "a = cas(X, 0, 1); return a ||| b = cas(X, 0, 2); return b" in
        check_bool "complete" true (complete r);
        check_bool "left wins" true (has r (ret [ i 1; i 0 ]));
        check_bool "right wins" true (has r (ret [ i 0; i 1 ]));
        check_bool "not both" false (has r (ret [ i 1; i 1 ])));
    test "fetch-add serialises" (fun () ->
        let r = explore
            "a = fadd(X, 1); return a ||| b = fadd(X, 1); return b"
        in
        check_bool "0,1" true (has r (ret [ i 0; i 1 ]));
        check_bool "1,0" true (has r (ret [ i 1; i 0 ]));
        check_bool "no duplicate" false (has r (ret [ i 0; i 0 ])));
    test "spinlock via CAS protects a na location" (fun () ->
        (* classic DRF-by-lock: both threads update X under the lock L *)
        let r = explore ~params:{ params with promise_budget = 0 }
            "a = 0; while a == 0 { a = cas(L, 0, 1) }; \
             t = X.load(na); X.store(na, t + 1); L.store(rel, 0); return 0 ||| \
             b = 0; while b == 0 { b = cas(L, 0, 1) }; \
             s = X.load(na); X.store(na, s + 1); L.store(rel, 0); return s"
        in
        check_bool "no UB under lock" false (has r M.Bot);
        check_bool "second sees first" true (has r (ret [ i 0; i 1 ])));
    test "print outputs are part of behaviors" (fun () ->
        let r = explore "print(7); return 1" in
        check_bool "out" true
          (M.Behavior_set.mem (M.Ret [ (i 1, [ i 7 ]) ]) r.M.behaviors));
    (* Appendix C / Remark 3: PS disallows reordering an internal choice
       past a release write — the promise is blocked by the release. *)
    test "App C: choice before release blocks promise-reorder behavior"
      (fun () ->
        let src = "b = choose(); X.store(rel, 0); \
                   if b == 1 { c = Y.load(rlx); if c == 1 { X.store(rlx,1) } } \
                   else { X.store(rlx,1) }; return 0 ||| \
                   a = X.load(rlx); Y.store(rlx, a); return a"
        in
        let r = explore ~params:{ params with promise_budget = 1 } src in
        (* thread 2 must not observe X=1 with b=1-branch printing 1; we
           check the machine explores without UB and that a=1 requires the
           else-branch timing: a=1 ∥ feasible, but never via thin air *)
        check_bool "no UB" false (has r M.Bot));
  ]

(* Appendix B: the multi-message non-atomic write is needed — a promise of
   X=2 is fulfilled as a batch extra of the write X :=na 1, letting the
   *source* of the App B optimization print 1. *)
let appendix_b =
  test "App B: batch fulfillment lets the source print 1" (fun () ->
      let src =
        "a = X.load(na); Y.store(rlx, a); return 0 ||| \
         b = Y.load(rlx); c = freeze(b); \
         if c == 1 { X.store(na, 1); print(1) } else { X.store(na, 2) }; \
         return c"
      in
      let r =
        explore ~params:{ params with promise_budget = 1; batch_bound = 1 } src
      in
      let printed_one =
        M.Behavior_set.exists
          (function
            | M.Ret [ _; (_, outs) ] -> List.mem (i 1) outs
            | _ -> false)
          r.M.behaviors
      in
      check_bool "print(1) reachable in the source" true printed_one)

(* Appendix C: PS forbids reordering an internal choice (freeze) past a
   release write — the release blocks the promise, so only the *target*
   (release hoisted before the freeze) can print 1. *)
let appendix_c =
  let pi1 = "a = X.load(rlx); Y.store(rlx, a); return a" in
  let src_pi2 =
    "b = freeze(undef); X.store(rel, 0); \
     if b == 1 { c = Y.load(rlx); if c == 1 { X.store(rlx, 1); print(1) } } \
     else { X.store(rlx, 1) }; return b"
  in
  let tgt_pi2 =
    "X.store(rel, 0); b = freeze(undef); \
     if b == 1 { c = Y.load(rlx); if c == 1 { X.store(rlx, 1); print(1) } } \
     else { X.store(rlx, 1) }; return b"
  in
  let printed_one r =
    M.Behavior_set.exists
      (function
        | M.Ret [ _; (_, outs) ] -> List.mem (i 1) outs
        | _ -> false)
      r.M.behaviors
  in
  test "App C: freeze;rel-write reorder changes PS behaviors" (fun () ->
      let p = { params with promise_budget = 1 } in
      let r_src = explore ~params:p (pi1 ^ " ||| " ^ src_pi2) in
      let r_tgt = explore ~params:p (pi1 ^ " ||| " ^ tgt_pi2) in
      check_bool "source cannot print 1" false (printed_one r_src);
      check_bool "target can print 1" true (printed_one r_tgt);
      check_bool "so the reordering is not a PS refinement" false
        (M.refines ~src:r_src.M.behaviors ~tgt:r_tgt.M.behaviors))

let suite = suite @ [ appendix_b; appendix_c ]

(* §5 "Results": strengthening non-atomic accesses to atomic ones is sound
   in PS_na (checked contextually — it is a PS-level theorem, not a SEQ
   transformation, since it changes the location's access class). *)
let strengthening =
  [
    test "strengthening na read to rlx is a PS_na refinement" (fun () ->
        let ctx = " ||| X.store(rlx, 1); return 0" in
        let rs = explore ("a = X.load(na); return a" ^ ctx) in
        let rt = explore ("a = X.load(rlx); return a" ^ ctx) in
        check_bool "refines" true
          (M.refines ~src:rs.M.behaviors ~tgt:rt.M.behaviors));
    test "strengthening na write to rel is a PS_na refinement" (fun () ->
        let ctx = " ||| a = X.load(rlx); return a" in
        let rs = explore ("X.store(na, 1); return 0" ^ ctx) in
        let rt = explore ("X.store(rel, 1); return 0" ^ ctx) in
        check_bool "refines" true
          (M.refines ~src:rs.M.behaviors ~tgt:rt.M.behaviors));
    test "weakening rlx to na is NOT a PS_na refinement" (fun () ->
        (* the na target races (undef, even UB) where the rlx source
           cannot *)
        let ctx = " ||| X.store(rlx, 1); return 0" in
        let rs = explore ("a = X.load(rlx); return a" ^ ctx) in
        let rt = explore ("a = X.load(na); return a" ^ ctx) in
        check_bool "does not refine" false
          (M.refines ~src:rs.M.behaviors ~tgt:rt.M.behaviors));
  ]

let suite = suite @ strengthening

(* Fences (PS2-style view triples, extension): a release fence before a
   relaxed flag write synchronises with an acquire fence after a relaxed
   flag read — MP without rel/acq accesses. *)
let fences =
  [
    test "fence MP: rel-fence + rlx flag synchronises via acq-fence"
      (fun () ->
        let r =
          explore
            "X.store(na,1); fence(rel); Y.store(rlx,1); return 0 ||| \
             a = Y.load(rlx); fence(acq); if a == 1 { b = X.load(na) }; \
             return 10*a+b"
        in
        check_bool "complete" true (complete r);
        check_bool "synchronised read" true (has r (ret [ i 0; i 11 ]));
        check_bool "no stale read" false (has r (ret [ i 0; i 10 ]));
        check_bool "no racy undef" false (has r (ret [ i 0; u ]));
        check_bool "no UB" false (has r M.Bot));
    test "fence MP: missing acq fence leaves the race" (fun () ->
        let r =
          explore
            "X.store(na,1); fence(rel); Y.store(rlx,1); return 0 ||| \
             a = Y.load(rlx); if a == 1 { b = X.load(na) }; return b"
        in
        check_bool "racy undef possible" true (has r (ret [ i 0; u ])));
    test "fence MP: missing rel fence leaves the race" (fun () ->
        let r =
          explore
            "X.store(na,1); Y.store(rlx,1); return 0 ||| \
             a = Y.load(rlx); fence(acq); if a == 1 { b = X.load(na) }; \
             return b"
        in
        check_bool "racy undef possible" true (has r (ret [ i 0; u ])));
    test "fences do not make SB sequentially consistent" (fun () ->
        let r =
          explore
            "Y.store(rlx,1); fence(acqrel); a = Z.load(rlx); return a ||| \
             Z.store(rlx,1); fence(acqrel); b = Y.load(rlx); return b"
        in
        (* PS2-style acq/rel fences are not SC fences: both-zero remains *)
        check_bool "0,0 allowed" true (has r (ret [ i 0; i 0 ])));
  ]

let suite = suite @ fences

(* SC fences (PS2-style global SC view, extension): SB with SC fences
   recovers sequential consistency — both-zero is forbidden. *)
let sc_fences =
  [
    test "SC fences forbid SB both-zero" (fun () ->
        let r =
          explore
            "Y.store(rlx,1); fence(sc); a = Z.load(rlx); return a ||| \
             Z.store(rlx,1); fence(sc); b = Y.load(rlx); return b"
        in
        check_bool "complete" true (complete r);
        check_bool "no 0,0" false (has r (ret [ i 0; i 0 ]));
        check_bool "0,1 still there" true (has r (ret [ i 0; i 1 ])));
    test "SC fence also synchronises like rel-acq fences" (fun () ->
        let r =
          explore
            "X.store(na,1); fence(sc); Y.store(rlx,1); return 0 ||| \
             a = Y.load(rlx); fence(sc); if a == 1 { b = X.load(na) }; \
             return 10*a+b"
        in
        check_bool "synchronised" true (has r (ret [ i 0; i 11 ]));
        check_bool "no racy undef" false (has r (ret [ i 0; u ])));
  ]

let suite = suite @ sc_fences

(* Pins of PS_na state dedup and certification-memo equivalence: the
   states, memo hits, distinct certification entries and behaviors of
   every E4 catalog program and every E15 grid row (the [ps] column)
   under a fresh memo, and of one adequacy row whose target exploration
   reuses the memo its source warmed.  A canonical key that merged or
   split visited states moves [states]; one that merged or split
   certification entries moves the entry count, which no golden table
   shows.  The hits count the certifications that still run after the
   expansion cache; the entries do not depend on that cache, since it
   skips only certifications of keys already stored. *)
let pinned (states, memo_hits, entries, behaviors) memo (r : M.result) =
  Alcotest.(check (pair (triple int int int) string))
    "((states, memo hits, memo entries), behaviors)"
    ((states, memo_hits, entries), behaviors)
    ( (r.M.states, r.M.memo_hits, M.memo_entries memo),
      Fmt.str "%a" M.pp_behaviors r.M.behaviors )

(* keyed by program name: grid rows that reuse an E4 program appear once *)
let ps_pins =
  [
    ("SB-rlx", (136, 20, 356, "{⟨0 ∥ 0⟩; ⟨0 ∥ 1⟩; ⟨1 ∥ 0⟩; ⟨1 ∥ 1⟩}"));
    ("MP-rel-acq", (200, 60, 354, "{⟨0 ∥ 0⟩; ⟨0 ∥ 11⟩}"));
    ("LB-rlx", (157, 48, 336, "{⟨0 ∥ 0⟩; ⟨0 ∥ 1⟩; ⟨1 ∥ 0⟩; ⟨1 ∥ 1⟩}"));
    ("LB-data", (157, 48, 336, "{⟨0 ∥ 0⟩}"));
    ("Ex-5.1", (647, 150, 1218, "{⟨0 ∥ 0⟩; ⟨0 ∥ 1⟩; ⟨1 ∥ 1⟩; ⟨2 ∥ 1⟩; ⟨undef ∥ 1⟩}"));
    ("WW-race", (1901, 8685, 14544, "{⊥; ⟨0 ∥ 0⟩}"));
    ("RW-race", (216, 60, 216, "{⟨0 ∥ 0⟩; ⟨1 ∥ 0⟩; ⟨2 ∥ 0⟩; ⟨undef ∥ 0⟩}"));
    ( "2+2W-rlx",
      ( 3824,
        242,
        2787,
        "{⟨0 ∥ 0 ∥ 0⟩; ⟨0 ∥ 0 ∥ 1⟩; ⟨0 ∥ 0 ∥ 2⟩; ⟨0 ∥ 0 ∥ 10⟩; ⟨0 ∥ 0 ∥ 11⟩; \
         ⟨0 ∥ 0 ∥ 12⟩; ⟨0 ∥ 0 ∥ 20⟩; ⟨0 ∥ 0 ∥ 21⟩; ⟨0 ∥ 0 ∥ 22⟩}" ) );
    ("MP-fences", (290, 60, 452, "{⟨0 ∥ 0⟩; ⟨0 ∥ 11⟩}"));
    ("SB-sc-fence", (208, 30, 810, "{⟨0 ∥ 1⟩; ⟨1 ∥ 0⟩; ⟨1 ∥ 1⟩}"));
    ("MP-rlx", (74, 15, 145, "{⟨0 ∥ 0⟩; ⟨0 ∥ 10⟩; ⟨0 ∥ 11⟩}"));
    ( "IRIW-rlx",
      ( 3461,
        20,
        244,
        "{⟨0 ∥ 0 ∥ 0 ∥ 0⟩; ⟨0 ∥ 0 ∥ 0 ∥ 1⟩; ⟨0 ∥ 0 ∥ 0 ∥ 10⟩; \
         ⟨0 ∥ 0 ∥ 0 ∥ 11⟩; ⟨0 ∥ 0 ∥ 1 ∥ 0⟩; ⟨0 ∥ 0 ∥ 1 ∥ 1⟩; \
         ⟨0 ∥ 0 ∥ 1 ∥ 10⟩; ⟨0 ∥ 0 ∥ 1 ∥ 11⟩; ⟨0 ∥ 0 ∥ 10 ∥ 0⟩; \
         ⟨0 ∥ 0 ∥ 10 ∥ 1⟩; ⟨0 ∥ 0 ∥ 10 ∥ 10⟩; ⟨0 ∥ 0 ∥ 10 ∥ 11⟩; \
         ⟨0 ∥ 0 ∥ 11 ∥ 0⟩; ⟨0 ∥ 0 ∥ 11 ∥ 1⟩; ⟨0 ∥ 0 ∥ 11 ∥ 10⟩; \
         ⟨0 ∥ 0 ∥ 11 ∥ 11⟩}" ) );
    ( "R-rlx",
      ( 2414,
        76,
        1152,
        "{⟨0 ∥ 0 ∥ 0⟩; ⟨0 ∥ 0 ∥ 1⟩; ⟨0 ∥ 0 ∥ 2⟩; ⟨0 ∥ 0 ∥ 11⟩; ⟨0 ∥ 0 ∥ 12⟩; \
         ⟨0 ∥ 0 ∥ 21⟩; ⟨0 ∥ 0 ∥ 22⟩; ⟨0 ∥ 1 ∥ 0⟩; ⟨0 ∥ 1 ∥ 1⟩; ⟨0 ∥ 1 ∥ 2⟩; \
         ⟨0 ∥ 1 ∥ 11⟩; ⟨0 ∥ 1 ∥ 12⟩; ⟨0 ∥ 1 ∥ 21⟩; ⟨0 ∥ 1 ∥ 22⟩}" ) );
    ( "S-rlx",
      ( 2698,
        122,
        1121,
        "{⟨0 ∥ 0 ∥ 0⟩; ⟨0 ∥ 0 ∥ 1⟩; ⟨0 ∥ 0 ∥ 2⟩; ⟨0 ∥ 0 ∥ 11⟩; ⟨0 ∥ 0 ∥ 12⟩; \
         ⟨0 ∥ 0 ∥ 21⟩; ⟨0 ∥ 0 ∥ 22⟩; ⟨0 ∥ 1 ∥ 0⟩; ⟨0 ∥ 1 ∥ 1⟩; ⟨0 ∥ 1 ∥ 2⟩; \
         ⟨0 ∥ 1 ∥ 11⟩; ⟨0 ∥ 1 ∥ 12⟩; ⟨0 ∥ 1 ∥ 21⟩; ⟨0 ∥ 1 ∥ 22⟩}" ) );
    ( "WRC-rlx",
      ( 745,
        34,
        290,
        "{⟨0 ∥ 0 ∥ 0⟩; ⟨0 ∥ 0 ∥ 1⟩; ⟨0 ∥ 0 ∥ 10⟩; ⟨0 ∥ 0 ∥ 11⟩; ⟨0 ∥ 1 ∥ 0⟩; \
         ⟨0 ∥ 1 ∥ 1⟩; ⟨0 ∥ 1 ∥ 10⟩; ⟨0 ∥ 1 ∥ 11⟩}" ) );
    ("CoRR-rlx", (49, 5, 60, "{⟨0 ∥ 0⟩; ⟨0 ∥ 1⟩; ⟨0 ∥ 11⟩}"));
  ]

let key_pins =
  let module C = Litmus.Catalog in
  let programs =
    C.concurrent_programs
    @ List.filter
        (fun (c : C.concurrent) -> not (List.memq c C.concurrent_programs))
        (List.map (fun (ge : C.grid_entry) -> ge.C.g) C.grid_programs)
  in
  List.map
    (fun (c : C.concurrent) ->
      test ("key pin: " ^ c.C.cname ^ " under a fresh memo") (fun () ->
          match List.assoc_opt c.C.cname ps_pins with
          | None -> Alcotest.failf "no pin for %s" c.C.cname
          | Some pin ->
            let memo = M.make_memo () in
            pinned pin memo
              (M.explore ~memo (Parser.threads_of_string c.C.threads))))
    programs
  @ [
      (* the explorations Adequacy.check_transformation runs for this
         row: the source stops at ⊥ (it has none), the target shares the
         source's memo (the entry counts are cumulative); the row totals
         11653 states, 35751 hits and 87090 entries *)
      test "key pin: na-write-then-rel x handover adequacy row" (fun () ->
          let tr = Option.get (C.find_transformation "na-write-then-rel") in
          let ctx = Parser.threads_of_string (List.assoc "handover" C.contexts) in
          let memo = M.make_memo () in
          pinned
            (1144, 870, 10177, "{⟨0 ∥ 0⟩; ⟨0 ∥ 1⟩}")
            memo
            (M.explore ~until_bot:true ~memo
               (Parser.stmt_of_string tr.C.src :: ctx));
          pinned
            (10509, 34881, 87090, "{⊥; ⟨0 ∥ 0⟩; ⟨0 ∥ 1⟩; ⟨0 ∥ 2⟩; ⟨0 ∥ undef⟩}")
            memo
            (M.explore ~memo (Parser.stmt_of_string tr.C.tgt :: ctx));
          Alcotest.(check int) "memo hits, cumulative" 35751 (M.memo_hits memo));
    ]

let suite = suite @ key_pins

(* The expansion cache of [Machine.explore] decides hits with
   [Memory.equal] and [Thread.equal].  They must imply [compare = 0]
   (a false hit would replay another configuration's successors), must
   not depend on the tree shapes of the maps inside (a false miss only
   costs time, but these are the hits that save it), and must not be
   invariant under timestamp order-isomorphism, which the canonical keys
   are. *)

module Th = Promising.Thread
module Mem = Promising.Memory
module Message = Promising.Message

let cache_gen_cfg =
  {
    Gen.default_config with
    Gen.na_locs = [ Loc.make "X" ];
    at_locs = [ Loc.make "Y" ];
    regs = [ Reg.make "a"; Reg.make "b" ];
    values = [ 0; 1 ];
  }

(* The states a random run of machine steps (thread, promise and lower
   steps, uncertified) passes through. *)
let walk rand progs ~len =
  let locs =
    Loc.Set.elements
      (List.fold_left
         (fun acc (fp : Stmt.footprint) ->
           Loc.Set.union acc (Loc.Set.union fp.Stmt.na fp.Stmt.at))
         Loc.Set.empty (List.map Stmt.footprint progs))
  in
  let writable =
    List.map
      (fun p -> Loc.Set.elements (Th.writable_locs Loc.Set.empty p))
      progs
  in
  let rec go n (s : M.state) acc =
    let succs =
      List.concat
        (List.mapi
           (fun tid th ->
             List.filter_map
               (function
                 | Th.Step (th', mem', _) ->
                   Some
                     {
                       M.threads =
                         List.mapi (fun i t -> if i = tid then th' else t)
                           s.M.threads;
                       memory = mem';
                     }
                 | Th.Failure -> None)
               (Th.steps params s.M.memory th
               @ Th.promise_steps params (List.nth writable tid) s.M.memory th
               @ Th.lower_steps s.M.memory th))
           s.M.threads)
    in
    if n = 0 || succs = [] then List.rev (s :: acc)
    else
      go (n - 1)
        (List.nth succs (Random.State.int rand (List.length succs)))
        (s :: acc)
  in
  go len
    {
      M.threads = List.map (fun p -> Th.init (Prog.init p)) progs;
      memory = Mem.init locs;
    }
    []

(* A copy sharing nothing with the original, every map rebuilt by
   inserting its bindings in ascending or descending key order. *)
let rebuild ~descending (s : M.state) : M.state =
  let order l = if descending then List.rev l else l in
  let map add empty bindings f =
    List.fold_left (fun m (k, v) -> add k (f v) m) empty (order bindings)
  in
  let view v = map Loc.Map.add Loc.Map.empty (Loc.Map.bindings v) Fun.id in
  let msg (m : Message.t) =
    {
      m with
      Message.payload =
        (match m.Message.payload with
         | Message.Concrete { value; view = v } ->
           Message.Concrete { value; view = view v }
         | Message.Reserved -> Message.Reserved);
    }
  in
  let thread (th : Th.t) =
    let p = th.Th.prog in
    {
      th with
      Th.prog =
        {
          p with
          Prog.cont = Marshal.from_string (Marshal.to_string p.Prog.cont []) 0;
          regs =
            map Reg.Map.add Reg.Map.empty (Reg.Map.bindings p.Prog.regs)
              Fun.id;
        };
      views =
        {
          Promising.Tview.cur = view th.Th.views.Promising.Tview.cur;
          acq = view th.Th.views.Promising.Tview.acq;
          rel = view th.Th.views.Promising.Tview.rel;
        };
      promises = List.map msg th.Th.promises;
      outs = List.map Fun.id th.Th.outs;
    }
  in
  {
    M.threads = List.map thread s.M.threads;
    memory =
      {
        Mem.msgs =
          map Loc.Map.add Loc.Map.empty (Loc.Map.bindings s.M.memory.Mem.msgs)
            (List.map msg);
        scv = view s.M.memory.Mem.scv;
      };
  }

let qcheck_cache_equal =
  QCheck.Test.make
    ~name:"Memory.equal and Thread.equal imply compare = 0 and ignore map \
           shapes, on states of random machine runs"
    ~count:40
    (QCheck.make
       ~print:(fun (p1, p2, _) -> Fmt.str "%a ||| %a" Stmt.pp p1 Stmt.pp p2)
       (fun rand ->
         ( Gen.gen_program cache_gen_cfg rand ~size:4,
           Gen.gen_program cache_gen_cfg rand ~size:4,
           Random.State.bits rand )))
    (fun (p1, p2, seed) ->
      let rand = Random.State.make [| seed |] in
      let states =
        walk rand [ p1; p2 ] ~len:12 @ walk rand [ p1; p2 ] ~len:12
      in
      let implies (s : M.state) (s' : M.state) =
        ((not (Mem.equal s.M.memory s'.M.memory))
        || Mem.compare s.M.memory s'.M.memory = 0)
        && List.for_all2
             (fun th th' -> (not (Th.equal th th')) || Th.compare th th' = 0)
             s.M.threads s'.M.threads
      in
      let same (s : M.state) (s' : M.state) =
        Mem.equal s.M.memory s'.M.memory
        && Mem.compare s.M.memory s'.M.memory = 0
        && List.for_all2
             (fun th th' -> Th.equal th th' && Th.compare th th' = 0)
             s.M.threads s'.M.threads
      in
      let asc = List.map (rebuild ~descending:false) states
      and desc = List.map (rebuild ~descending:true) states in
      (* the point of the rebuilt copies: with two locations, the two
         insertion orders give the memory maps different shapes *)
      List.iter2
        (fun (a : M.state) (d : M.state) ->
          if
            Loc.Map.cardinal a.M.memory.Mem.msgs >= 2
            && Stdlib.compare a.M.memory.Mem.msgs d.M.memory.Mem.msgs = 0
          then QCheck.Test.fail_report "rebuilt memory maps share a shape")
        asc desc;
      let all = states @ asc @ desc in
      List.for_all (fun a -> List.for_all (implies a) all) all
      && List.for_all2 same states asc
      && List.for_all2 same states desc
      && List.for_all2 same asc desc)

let msg x ts v =
  {
    Message.loc = x;
    ts;
    attached = false;
    payload =
      Message.Concrete { value = i v; view = Promising.View.bot };
  }

let cache_soundness =
  [
    QCheck_alcotest.to_alcotest ~long:false qcheck_cache_equal;
    test "Memory.equal is exact: isomorphic timestamps are not equal"
      (fun () ->
        let x = Loc.make "X" in
        let t = Promising.Time.make in
        let build ts1 ts2 =
          Mem.add (Mem.add (Mem.init [ x ]) (msg x ts2 2)) (msg x ts1 1)
        in
        (* x messages at 0, 1/2, 1 and at 0, 1, 2, with the same values
           in the same order *)
        let half = build (t 1 2) (t 1 1) and whole = build (t 1 1) (t 2 1) in
        let values mem =
          List.map
            (fun m -> Fmt.str "%a" Value.pp (Option.get (Message.value m)))
            (Mem.messages_at mem x)
        in
        Alcotest.(check (list string))
          "same values in timestamp order" (values half) (values whole);
        check_bool "isomorphic memories are not equal" false
          (Mem.equal half whole);
        check_bool "an equal rebuild is equal" true
          (Mem.equal half (build (t 1 2) (t 1 1))));
  ]

let suite = suite @ cache_soundness
