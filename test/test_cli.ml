(* CLI exit-code contract for the drivers (README: 0 ok, 1 parse/IO
   error, 2 usage, 3 refuted/lint errors, 4 undecided).

   The load-bearing check is the seqlint/seqcheck agreement: `seqcheck
   --lint SRC TGT` must exit 3 exactly when `seqlint SRC TGT` does
   (error-severity diagnostics), even if the refinement itself holds —
   the two front ends share Optimizer.Lint and must never disagree on a
   program pair.

   dune runtest runs with cwd _build/default/test, so the freshly built
   drivers are at ../bin/*.exe (declared as deps in test/dune); a direct
   `dune exec test/test_main.exe` from the project root finds them under
   _build/default/bin. *)

let exe name =
  let local = Filename.concat "../bin" (name ^ ".exe") in
  if Sys.file_exists local then local
  else Filename.concat "_build/default/bin" (name ^ ".exe")

let examples =
  if Sys.file_exists "../examples/programs" then "../examples/programs"
  else "examples/programs"

let wm f = Filename.concat examples f

let run_exit cmd =
  match Unix.system (cmd ^ " > /dev/null 2>&1") with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

let check_exit what expected cmd =
  Alcotest.(check int) what expected (run_exit cmd)

(* Exit code and stdout of [cmd]. *)
let run_output cmd =
  let ic = Unix.open_process_in (cmd ^ " 2> /dev/null") in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED n -> (n, out)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> (-1, out)

let test_seqlint_exit_codes () =
  (* warnings and hints are informational: exit 0 *)
  check_exit "warning-only program exits 0" 0
    (Fmt.str "%s %s" (exe "seqlint") (wm "bad_reorder_src.wm"));
  (* a drf-guarded downgrade removes the would-be racy-write error *)
  check_exit "DRF-certified program exits 0" 0
    (Fmt.str "%s %s" (exe "seqlint") (wm "mp.wm"));
  check_exit "racy-write program exits 3" 3
    (Fmt.str "%s %s" (exe "seqlint") (wm "slf_src.wm"))

(* cmdliner's `file` converter rejects a nonexistent positional at parse
   time, so this surfaces as its CLI-error code (124), never as one of
   the verdict codes 0/3/4. *)
let test_seqlint_missing_file () =
  let code = run_exit (Fmt.str "%s /nonexistent.wm" (exe "seqlint")) in
  Alcotest.(check bool)
    "missing file is a usage/IO error" true
    (code = 1 || code = 2 || code = 124)

let test_seqlint_json_same_exit () =
  List.iter
    (fun f ->
      let plain = run_exit (Fmt.str "%s %s" (exe "seqlint") (wm f)) in
      let json = run_exit (Fmt.str "%s --json %s" (exe "seqlint") (wm f)) in
      Alcotest.(check int) (f ^ ": --json preserves the exit code") plain json)
    [ "mp.wm"; "slf_src.wm"; "bad_reorder_src.wm" ]

let test_seqcheck_lint_agreement () =
  List.iter
    (fun (s, t) ->
      let lint_errors =
        run_exit (Fmt.str "%s %s %s" (exe "seqlint") (wm s) (wm t)) = 3
      in
      let plain =
        run_exit (Fmt.str "%s %s %s" (exe "seqcheck") (wm s) (wm t))
      in
      let linted =
        run_exit (Fmt.str "%s --lint %s %s" (exe "seqcheck") (wm s) (wm t))
      in
      Alcotest.(check int)
        (Fmt.str "%s/%s: --lint agrees with seqlint" s t)
        (if plain = 0 && lint_errors then 3 else plain)
        linted)
    [
      ("slf_src.wm", "slf_tgt.wm");
      (* refines, lint errors: 0 -> 3 *)
      ("bad_reorder_src.wm", "bad_reorder_tgt.wm");
      (* refuted either way: 3 *)
      ("fig4.wm", "fig4.wm");
      (* self-refinement with lint errors: 0 -> 3 *)
    ]

(* A program that never terminates and never revisits a state: under
   a 50 ms deadline every backend answers undecided (exit 4) with the
   deadline as the reason, instead of running to its state bound. *)
let test_seqcheck_backend_deadline () =
  let f = Filename.temp_file "loop" ".wm" in
  Out_channel.with_open_text f (fun oc ->
      output_string oc
        "a = 0; while (a < 2) { Y.store(rel, 1); a = 0 }; return a\n");
  List.iter
    (fun backend ->
      let code, out =
        run_output
          (Fmt.str "%s --backend %s --timeout-ms 50 %s %s" (exe "seqcheck")
             backend f f)
      in
      Alcotest.(check int) (backend ^ ": exit 4") 4 code;
      Alcotest.(check string)
        (backend ^ ": deadline") "UNKNOWN(deadline)" (String.trim out))
    [ "sc"; "catchfire" ];
  Sys.remove f

let suite =
  [
    Alcotest.test_case "seqlint exit codes" `Quick test_seqlint_exit_codes;
    Alcotest.test_case "seqlint missing-file exit" `Quick
      test_seqlint_missing_file;
    Alcotest.test_case "seqlint --json preserves exit codes" `Quick
      test_seqlint_json_same_exit;
    Alcotest.test_case "seqcheck --lint agrees with seqlint" `Quick
      test_seqcheck_lint_agreement;
    Alcotest.test_case "seqcheck --backend sc|catchfire honours a deadline"
      `Quick test_seqcheck_backend_deadline;
  ]
