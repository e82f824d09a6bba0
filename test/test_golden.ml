(* Golden-table regression test for the E1/E2 transformation soundness
   matrix.  The table below is Matrix.render_e12 ~stats:false over the
   full corpus — every byte (verdicts, pair counts, row order) is a
   deterministic function of the corpus, so any drift is a real change
   in checker behavior and must be reviewed, not absorbed.

   To regenerate after an intentional change:
     dune exec bin/seqcheck.exe -- --corpus 2>/dev/null \
       | sed -E 's/ [0-9]+\.[0-9]+$//; s/ ms$//' | head -n -1

   Comparison right-trims each line: the renderer pads fixed-width
   columns, so rows carry trailing spaces the editor would strip. *)

let golden =
  {golden|name                             paper ref                  simple(exp/got)    advanced(exp/got)  ok         pairs
slf-basic                        Ex 1.1                     sound/sound        sound/sound        ok         8
licm-pattern                     Ex 1.3                     sound/sound        sound/sound        ok         40
reorder-na-rw-diff               Ex 2.5                     sound/sound        sound/sound        ok         64
reorder-na-rw-same               Ex 2.5                     unsound/unsound    unsound/unsound    ok         16
reorder-na-ww-diff               Ex 2.5 (variant)           sound/sound        sound/sound        ok         64
overwritten-store-elim           Ex 2.6(i)                  sound/sound        sound/sound        ok         8
store-to-load-fwd                Ex 2.6(ii)                 sound/sound        sound/sound        ok         8
load-to-load-fwd                 Ex 2.6(iii)                sound/sound        sound/sound        ok         8
read-before-write-elim           Ex 2.6(iv)                 sound/sound        sound/sound        ok         8
write-after-read-intro           Ex 2.6 (converse of iv)    unsound/unsound    unsound/unsound    ok         16
redundant-store-intro            Ex 2.6(i')                 sound/sound        sound/sound        ok         8
copy-to-load-intro               Ex 2.6(iii')               sound/sound        sound/sound        ok         8
write-before-loop                Ex 2.7                     unsound/unsound    unsound/unsound    ok         16
write-before-loop-after-write    Ex 2.7 (variant)           unsound/unsound    unsound/unsound    ok         16
read-before-loop                 Ex 2.7                     sound/sound        sound/sound        ok         8
unused-load-elim                 Ex 2.8                     sound/sound        sound/sound        ok         8
irrelevant-load-intro            Ex 2.8                     sound/sound        sound/sound        ok         8
acq-then-na-write                Ex 2.9(i)                  unsound/unsound    unsound/unsound    ok         16
na-write-then-rel                Ex 2.9(ii)                 unsound/unsound    unsound/unsound    ok         26
acq-then-na-read                 Ex 2.9(iii)                unsound/unsound    unsound/unsound    ok         104
na-read-then-rel                 Ex 2.9(iv)                 unsound/unsound    unsound/unsound    ok         38
na-write-into-acq                Ex 2.9(i')                 sound/sound        sound/sound        ok         24
na-read-into-acq                 Ex 2.9(iii')               sound/sound        sound/sound        ok         52
na-read-into-rel                 Ex 2.9(iv')                sound/sound        sound/sound        ok         19
na-write-into-rel                Ex 2.9(ii')                unsound/unsound    sound/sound        ok         24
store-intro-after-rel            Ex 2.10                    unsound/unsound    unsound/unsound    ok         20
store-intro-after-rlx            Ex 2.10                    sound/sound        sound/sound        ok         9
slf-across-rlx-read              Ex 2.11                    sound/sound        sound/sound        ok         12
slf-across-rlx-write             Ex 2.11                    sound/sound        sound/sound        ok         9
slf-across-acq-read              Ex 2.11                    sound/sound        sound/sound        ok         12
slf-across-rel-write             Ex 2.11                    sound/sound        sound/sound        ok         10
slf-across-rel-acq               Ex 2.12                    unsound/unsound    unsound/unsound    ok         60
rlx-read-then-na-write           §3 (late UB)              unsound/unsound    sound/sound        ok         32
acq-then-div0                    Ex 3.1                     unsound/unsound    unsound/unsound    ok         2
ex3.1-end-to-end                 Ex 3.1 (whole chain)       unsound/unsound    unsound/unsound    ok         2
conditional-ub-hoist             §3 (oracle counterexample) unsound/unsound    unsound/unsound    ok         2
unconditional-ub-hoist           §3                        unsound/unsound    sound/sound        ok         2
dse-across-rlx-read              Ex 3.5                     sound/sound        sound/sound        ok         24
dse-across-acq-read              Ex 3.5                     sound/sound        sound/sound        ok         24
dse-across-rel-write             Ex 3.5                     unsound/unsound    sound/sound        ok         26
dse-across-rel-acq               Ex 3.5 (boundary)          unsound/unsound    unsound/unsound    ok         66
choose-then-rel                  Remark 3 / App C           unsound/unsound    unsound/unsound    ok         2
choose-then-na-write             Remark 3 (allowed by ⊑w) unsound/unsound    sound/sound        ok         28
freeze-then-rel                  App C (freeze form)        unsound/unsound    unsound/unsound    ok         2
na-write-into-acq-fence          extension (fence roach motel) sound/sound        sound/sound        ok         12
acq-fence-then-na-write          extension (fence roach motel) unsound/unsound    unsound/unsound    ok         16
slf-across-cas                   extension (SLF across a single RMW) sound/sound        sound/sound        ok         11
no-slf-across-rel-then-cas       extension (rel;RMW is a rel-acq pair) unsound/unsound    unsound/unsound    ok         46
rmw-identity                     extension (RMW matches itself) sound/sound        sound/sound        ok         5
no-slf-across-sc-fence           extension (SC fence is a rel-acq pair) unsound/unsound    unsound/unsound    ok         26
slf-across-rel-fence             extension (Ex 2.11 analogue for fences) sound/sound        sound/sound        ok         10
no-sc-fence-weakening            extension (sc fence ≠ acq-rel fence) unsound/unsound    unsound/unsound    ok         2
sc-fence-identity                extension                  sound/sound        sound/sound        ok         2
no-acq-load-to-load-fwd          §2 (atomics are not optimized) unsound/unsound    unsound/unsound    ok         10
no-rlx-store-elim                §2 (atomics are not optimized) unsound/unsound    unsound/unsound    ok         2
no-rlx-slf                       §2 (atomics are not optimized) unsound/unsound    unsound/unsound    ok         4
no-na-to-rlx-strengthening       §5 (a mapping theorem, not a SEQ one) unsound/unsound    unsound/unsound    ok         16
-- 57 transformations, 0 mismatches
|golden}

let rtrim s =
  let n = ref (String.length s) in
  while !n > 0 && (s.[!n - 1] = ' ' || s.[!n - 1] = '\t') do decr n done;
  String.sub s 0 !n

let lines s = String.split_on_char '\n' s |> List.map rtrim

(* Right-trimmed, blank-line-insensitive comparison with a line-precise
   failure report.  All renderers pad fixed-width columns, so rows carry
   trailing spaces an editor would strip from the embedded golden. *)
let check_golden ~what ~expected ~actual =
  let exp = List.filter (fun l -> l <> "") (lines expected) in
  let got = List.filter (fun l -> l <> "") (lines actual) in
  if exp <> got then begin
    Fmt.epr "--- actual %s ---@.%s--- end ---@." what actual;
    let rec first_diff i = function
      | [], [] -> ()
      | e :: _, [] -> Alcotest.failf "line %d: missing %S" i e
      | [], g :: _ -> Alcotest.failf "line %d: extra %S" i g
      | e :: es, g :: gs ->
        if e <> g then
          Alcotest.failf "line %d differs:@.  expected %S@.  got      %S" i e g
        else first_diff (i + 1) (es, gs)
    in
    first_diff 1 (exp, got)
  end

(* Every pinned table is rendered twice: with no budget, and under a
   limited budget far above what any row needs.  The two must read the
   same, so the golden strings also pin the budgeted path of every
   sweep over its full catalog. *)
let generous = Engine.Budget.spec ~timeout_ms:600_000. ~max_states:10_000_000 ()

let test_e12_golden budget () =
  (* swept through the engine so the golden table also re-certifies the
     parallel=sequential rendering contract *)
  let actual =
    Litmus.Matrix.render_e12 ~stats:false
      (Litmus.Matrix.e12_rows ~jobs:2 ~budget ())
  in
  check_golden ~what:"E1/E2 table" ~expected:golden ~actual

(* E4 litmus exploration: states, races and behavior sets per catalog
   program.  State counts pin the promising-machine and SC-baseline
   visited-set identities — a conflation or split in either shows up
   here as a count drift. *)
let golden_e4 =
  {golden|litmus       paper ref          states   races   behaviors
SB-rlx       classic            136      false   {⟨0 ∥ 0⟩; ⟨0 ∥ 1⟩; ⟨1 ∥ 0⟩; ⟨1 ∥ 1⟩}
MP-rel-acq   classic            200      false   {⟨0 ∥ 0⟩; ⟨0 ∥ 11⟩}
LB-rlx       classic            157      false   {⟨0 ∥ 0⟩; ⟨0 ∥ 1⟩; ⟨1 ∥ 0⟩; ⟨1 ∥ 1⟩}
LB-data      out-of-thin-air    157      false   {⟨0 ∥ 0⟩}
Ex-5.1       Ex 5.1             647      true    {⟨0 ∥ 0⟩; ⟨0 ∥ 1⟩; ⟨1 ∥ 1⟩; ⟨2 ∥ 1⟩; ⟨undef ∥ 1⟩}
WW-race      §5                1901     true    {⊥; ⟨0 ∥ 0⟩}
RW-race      §5                216      true    {⟨0 ∥ 0⟩; ⟨1 ∥ 0⟩; ⟨2 ∥ 0⟩; ⟨undef ∥ 0⟩}
2+2W-rlx     classic            3824     false   {⟨0 ∥ 0 ∥ 0⟩; ⟨0 ∥ 0 ∥ 1⟩; ⟨0 ∥ 0 ∥ 2⟩; ⟨0 ∥ 0 ∥ 10⟩; ⟨0 ∥ 0 ∥ 11⟩; ⟨0 ∥ 0 ∥ 12⟩; ⟨0 ∥ 0 ∥ 20⟩; ⟨0 ∥ 0 ∥ 21⟩; ⟨0 ∥ 0 ∥ 22⟩}
MP-fences    extension (fences) 290      false   {⟨0 ∥ 0⟩; ⟨0 ∥ 11⟩}
SB-sc-fence  extension (SC fences) 208      false   {⟨0 ∥ 1⟩; ⟨1 ∥ 0⟩; ⟨1 ∥ 1⟩}
-- 10 litmus programs
|golden}

let test_e4_golden budget () =
  let actual =
    Litmus.Matrix.render_e4 ~stats:false
      (Litmus.Matrix.e4_rows ~jobs:2 ~budget ())
  in
  check_golden ~what:"E4 table" ~expected:golden_e4 ~actual

(* E5 adequacy slice exactly as the default (non --full) bench run slices
   it: every 4th transformation × the first 4 contexts. *)
let golden_e5 =
  {golden|transformation                   SEQ-adv   PS-refines  ok
slf-basic                        true      true        ok
reorder-na-ww-diff               true      true        ok
read-before-write-elim           true      true        ok
write-before-loop                false     false       ok
irrelevant-load-intro            true      true        ok
na-read-then-rel                 false     true        ok
na-write-into-rel                true      true        ok
slf-across-rlx-write             true      true        ok
rlx-read-then-na-write           true      true        ok
unconditional-ub-hoist           true      true        ok
dse-across-rel-acq               false     true        ok
na-write-into-acq-fence          true      true        ok
rmw-identity                     true      true        ok
sc-fence-identity                true      true        ok
no-na-to-rlx-strengthening       false     true        ok
-- 15 rows x 4 contexts, 0 adequacy violations
|golden}

let test_e5_golden budget () =
  let corpus =
    List.filteri (fun i _ -> i mod 4 = 0) Litmus.Catalog.transformations
  in
  let contexts = List.filteri (fun i _ -> i < 4) Litmus.Catalog.contexts in
  let actual =
    Litmus.Matrix.render_e5 ~stats:false
      (Litmus.Adequacy.run ~jobs:2 ~contexts ~budget ~corpus ())
  in
  check_golden ~what:"E5 slice" ~expected:golden_e5 ~actual

(* E15 differential grid: per-backend allow/forbid verdicts for the weak
   behavior of each catalog grid entry, plus the SC ⊆ TSO ⊆ ARMv8 chain
   check.  Pins the hardware machines' behavior sets: a TSO buffer or
   ARMv8 reordering change that admits or loses a weak behavior flips a
   cell here.  Regenerate with:
     dune exec bin/litmus_run.exe -- --grid 2>/dev/null *)
let golden_e15 =
  {golden|litmus       paper ref          weak       sc      tso     armv8   ps      chain     ok
SB-rlx       classic            0,0        forbid  allow   allow   allow   ok        ok
SB-sc-fence  extension (SC fences) 0,0        forbid  forbid  forbid  forbid  ok        ok
MP-rel-acq   classic            0,10       forbid  forbid  forbid  forbid  ok        ok
MP-rlx       classic            0,10       forbid  forbid  allow   allow   ok        ok
MP-fences    extension (fences) 0,10       forbid  forbid  forbid  forbid  ok        ok
LB-rlx       classic            1,1        forbid  forbid  forbid  allow   ok        ok
IRIW-rlx     classic            0,0,10,10  forbid  forbid  allow   allow   ok        ok
R-rlx        classic            0,0,12     forbid  allow   allow   allow   ok        ok
S-rlx        classic            0,1,12     forbid  forbid  allow   allow   ok        ok
WRC-rlx      classic            0,1,10     forbid  forbid  allow   allow   ok        ok
CoRR-rlx     classic            0,10       forbid  forbid  forbid  forbid  ok        ok
-- 11 grid rows, 0 mismatches
|golden}

let test_e15_golden budget () =
  let actual =
    Litmus.Matrix.render_e15 ~stats:false
      (Litmus.Matrix.e15_rows ~jobs:2 ~budget ())
  in
  check_golden ~what:"E15 grid" ~expected:golden_e15 ~actual

(* E15 pass-soundness grid: catchfire must refute irrelevant-load-intro
   (a load of a racy location is UB there, not a no-op) while every
   other backend accepts all six pairs. *)
let golden_e15p =
  {golden|transformation             context              sc        catchfire   tso       armv8     ps
store-to-load-fwd          na-writer            ok        ok          ok        ok        ok
reorder-na-rw-diff         na-writer            ok        ok          ok        ok        ok
irrelevant-load-intro      na-writer            ok        REFUTED     ok        ok        ok
unused-load-elim           na-writer            ok        ok          ok        ok        ok
overwritten-store-elim     na-reader            ok        ok          ok        ok        ok
read-before-write-elim     na-writer            ok        ok          ok        ok        ok
-- 6 pass rows
|golden}

let test_e15p_golden budget () =
  let actual =
    Litmus.Matrix.render_e15p ~stats:false
      (Litmus.Matrix.e15p_rows ~jobs:2 ~budget ())
  in
  check_golden ~what:"E15 pass grid" ~expected:golden_e15p ~actual

(* seqlint over examples/programs/*.wm must reproduce the checked-in
   examples/seqlint.golden byte for byte (same rendering as
   bin/seqlint.ml, same shell-glob file order). *)
let test_seqlint_golden () =
  (* dune runtest runs with cwd _build/default/test (where the source_tree
     dep materialises ../examples); a direct dune exec runs from the
     project root. *)
  let root =
    if Sys.file_exists "../examples/programs" then ".." else "examples/.."
  in
  let dir = Filename.concat root "examples/programs" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".wm")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "example programs present" true (files <> []);
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun f ->
      let label = "examples/programs/" ^ f in
      let text =
        In_channel.with_open_text (Filename.concat dir f) In_channel.input_all
      in
      let threads = Lang.Parser.threads_of_string text in
      let diags = Optimizer.Lint.lint ~hints:true threads in
      let n = List.length threads in
      if diags = [] then Fmt.pf ppf "%s: clean@." label
      else begin
        Fmt.pf ppf "%s:@." label;
        List.iter
          (fun d -> Fmt.pf ppf "  %a@." (Optimizer.Lint.pp_diag ~threads:n) d)
          diags
      end)
    files;
  Format.pp_print_flush ppf ();
  let expected =
    In_channel.with_open_text
      (Filename.concat root "examples/seqlint.golden")
      In_channel.input_all
  in
  check_golden ~what:"seqlint output" ~expected ~actual:(Buffer.contents buf)

let suite =
  [
    Alcotest.test_case "E1/E2 table matches golden" `Quick
      (test_e12_golden Engine.Budget.spec_unlimited);
    Alcotest.test_case "E4 table matches golden" `Quick
      (test_e4_golden Engine.Budget.spec_unlimited);
    Alcotest.test_case "E5 slice matches golden" `Quick
      (test_e5_golden Engine.Budget.spec_unlimited);
    Alcotest.test_case "E15 grid matches golden" `Quick
      (test_e15_golden Engine.Budget.spec_unlimited);
    Alcotest.test_case "E15 pass grid matches golden" `Quick
      (test_e15p_golden Engine.Budget.spec_unlimited);
    Alcotest.test_case "budgeted E1/E2 table matches golden" `Quick
      (test_e12_golden generous);
    Alcotest.test_case "budgeted E4 table matches golden" `Quick
      (test_e4_golden generous);
    Alcotest.test_case "budgeted E5 slice matches golden" `Quick
      (test_e5_golden generous);
    Alcotest.test_case "budgeted E15 grid matches golden" `Quick
      (test_e15_golden generous);
    Alcotest.test_case "budgeted E15 pass grid matches golden" `Quick
      (test_e15p_golden generous);
    Alcotest.test_case "seqlint output matches golden" `Quick
      test_seqlint_golden;
  ]
