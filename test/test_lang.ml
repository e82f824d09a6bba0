(* Language substrate: values and the ⊑ order, expression evaluation with
   undef/UB, footprints, parsing, and the LTS determinism claim. *)

open Lang

let v = Alcotest.testable Value.pp Value.equal

let eval_str rf_bindings e_src =
  (* parse via a statement to reuse the expression grammar *)
  let s = Parser.stmt_of_string ("r = " ^ e_src) in
  match s with
  | Stmt.Assign (_, e) ->
    let rf =
      List.fold_left
        (fun m (r, x) -> Reg.Map.add (Reg.make r) x m)
        Reg.Map.empty rf_bindings
    in
    Expr.eval rf e
  | _ -> assert false

let test name f = Alcotest.test_case name `Quick f

let suite =
  [
    test "⊑: undef is top" (fun () ->
        Alcotest.(check bool) "v ⊑ undef" true (Value.le (Value.Int 3) Value.Undef);
        Alcotest.(check bool) "undef ⋢ v" false (Value.le Value.Undef (Value.Int 3));
        Alcotest.(check bool) "refl" true (Value.le (Value.Int 3) (Value.Int 3));
        Alcotest.(check bool) "distinct" false (Value.le (Value.Int 3) (Value.Int 4)));
    test "arith propagates undef" (fun () ->
        match eval_str [ ("a", Value.Undef) ] "a + 1" with
        | Expr.Ok x -> Alcotest.check v "undef" Value.Undef x
        | Expr.Fault -> Alcotest.fail "unexpected fault");
    test "division by zero is UB" (fun () ->
        Alcotest.(check bool) "fault" true (eval_str [] "1 / 0" = Expr.Fault));
    test "division by undef is UB" (fun () ->
        Alcotest.(check bool) "fault" true
          (eval_str [ ("a", Value.Undef) ] "1 / a" = Expr.Fault));
    test "comparison on values" (fun () ->
        match eval_str [ ("a", Value.Int 2) ] "a < 3 && a > 1" with
        | Expr.Ok x -> Alcotest.check v "true" Value.one x
        | Expr.Fault -> Alcotest.fail "unexpected fault");
    test "unset registers read as zero" (fun () ->
        match eval_str [] "q + 5" with
        | Expr.Ok x -> Alcotest.check v "5" (Value.Int 5) x
        | Expr.Fault -> Alcotest.fail "unexpected fault");
    test "footprint separates na and atomic" (fun () ->
        let s =
          Parser.stmt_of_string
            "a = X.load(na); Y.store(rel, 1); b = cas(Z, 0, 1); W.store(na, 2)"
        in
        let fp = Stmt.footprint s in
        Alcotest.(check (list string)) "na" [ "W"; "X" ]
          (Loc.Set.elements fp.Stmt.na);
        Alcotest.(check (list string)) "at" [ "Y"; "Z" ]
          (Loc.Set.elements fp.Stmt.at));
    test "mixed access detection" (fun () ->
        let s = Parser.stmt_of_string "a = X.load(na); X.store(rlx, 1)" in
        Alcotest.(check (list string)) "mixed" [ "X" ]
          (Loc.Set.elements (Stmt.mixed_locations s)));
    test "parser round-trip" (fun () ->
        let src =
          "a = X.load(na); if a == 1 { Y.store(rel, a + 1) } else { \
           while a < 3 { a = a + 1 } }; b = freeze(a); print(b); return b"
        in
        let s1 = Parser.stmt_of_string src in
        let s2 = Parser.stmt_of_string (Stmt.to_string s1) in
        Alcotest.(check string) "round-trip" (Stmt.to_string s1) (Stmt.to_string s2));
    test "parser rejects bad mode" (fun () ->
        Alcotest.check_raises "bad mode"
          (Parser.Error "1:12: invalid read mode \"sc\"") (fun () ->
            ignore (Parser.stmt_of_string "a = X.load(sc)")));
    test "threads split on |||" (fun () ->
        let ts = Parser.threads_of_string "return 1 ||| return 2 ||| return 3" in
        Alcotest.(check int) "3 threads" 3 (List.length ts));
    test "branching on undef is UB" (fun () ->
        let st = Prog.init (Parser.stmt_of_string "if 1/0 { skip }; return 1") in
        (match Prog.step st with
         | Prog.Undefined -> ()
         | _ -> Alcotest.fail "expected UB"));
    test "freeze of a defined value is silent" (fun () ->
        let st = Prog.init (Parser.stmt_of_string "a = freeze(4); return a") in
        match Prog.step st with
        | Prog.Silent _ -> ()
        | _ -> Alcotest.fail "expected silent step");
    test "freeze of undef offers choices" (fun () ->
        let st = Prog.init (Parser.stmt_of_string "a = freeze(undef); return a") in
        let rec run st n =
          if n > 10 then Alcotest.fail "did not terminate"
          else
            match Prog.step st with
            | Prog.Terminated x -> x
            | Prog.Silent st' -> run st' (n + 1)
            | _ -> Alcotest.fail "unexpected label"
        in
        match Prog.step st with
        | Prog.Choice f -> Alcotest.check v "7" (Value.Int 7) (run (f (Value.Int 7)) 0)
        | _ -> Alcotest.fail "expected choice");
    test "program end returns 0 after one silent step" (fun () ->
        match Prog.step (Prog.init Stmt.Skip) with
        | Prog.Silent st' ->
          (match Prog.step st' with
           | Prog.Terminated x -> Alcotest.check v "0" Value.zero x
           | _ -> Alcotest.fail "expected termination")
        | _ -> Alcotest.fail "expected silent implicit-return step");
    test "while loops unfold" (fun () ->
        let st =
          Prog.init (Parser.stmt_of_string "i = 0; while i < 3 { i = i + 1 }; return i")
        in
        let rec run st n =
          if n > 100 then Alcotest.fail "did not terminate"
          else
            match Prog.step st with
            | Prog.Terminated x -> x
            | Prog.Silent st' -> run st' (n + 1)
            | _ -> Alcotest.fail "unexpected label"
        in
        Alcotest.check v "3" (Value.Int 3) (run st 0));
  ]

(* Corpus sanity: every catalog entry parses, has a unique name, and
   respects the SEQ location conventions. *)
let catalog_sanity =
  [
    test "litmus corpus is well-formed" (fun () ->
        let names = Hashtbl.create 64 in
        List.iter
          (fun (tr : Litmus.Catalog.transformation) ->
            let n = tr.Litmus.Catalog.name in
            if Hashtbl.mem names n then Alcotest.failf "duplicate name %s" n;
            Hashtbl.add names n ();
            let src = Parser.stmt_of_string tr.Litmus.Catalog.src in
            let tgt = Parser.stmt_of_string tr.Litmus.Catalog.tgt in
            (* each side must be internally unmixed (SEQ precondition) *)
            List.iter
              (fun s ->
                if not (Loc.Set.is_empty (Stmt.mixed_locations s)) then
                  Alcotest.failf "mixed-mode location in %s" n)
              [ src; tgt ])
          Litmus.Catalog.transformations;
        List.iter
          (fun (c : Litmus.Catalog.concurrent) ->
            ignore (Parser.threads_of_string c.Litmus.Catalog.threads))
          Litmus.Catalog.concurrent_programs;
        List.iter
          (fun (_, ctx) -> ignore (Parser.threads_of_string ctx))
          Litmus.Catalog.contexts);
  ]

let suite = suite @ catalog_sanity

(* The lexer's token stream, positions and errors, pinned on a source that
   holds every punctuation and operator token, the [||]/[|||] and
   [==]/[=] boundaries, a comment and blank lines. *)
let lexer_pin_src =
  "x = (a + 1) * b - c / 2 % d; // ! @ | &\n{ e , f . g }\n\n\
   if (a == b) { y = a != b } else { z = a <= b };\n\
   w = a < b && a > b || !a >= b\n\
   a||b; a ||| b; a===b\n  return 0=="

let lexer_pin_tokens =
  [ ("IDENT x", 1, 1); ("PUNCT =", 1, 3); ("PUNCT (", 1, 5); ("IDENT a", 1, 6);
    ("OP +", 1, 8); ("INT 1", 1, 10); ("PUNCT )", 1, 11); ("OP *", 1, 13);
    ("IDENT b", 1, 15); ("OP -", 1, 17); ("IDENT c", 1, 19); ("OP /", 1, 21);
    ("INT 2", 1, 23); ("OP %", 1, 25); ("IDENT d", 1, 27); ("PUNCT ;", 1, 28);
    ("PUNCT {", 2, 1); ("IDENT e", 2, 3); ("PUNCT ,", 2, 5); ("IDENT f", 2, 7);
    ("PUNCT .", 2, 9); ("IDENT g", 2, 11); ("PUNCT }", 2, 13);
    ("KW if", 4, 1); ("PUNCT (", 4, 4); ("IDENT a", 4, 5); ("OP ==", 4, 7);
    ("IDENT b", 4, 10); ("PUNCT )", 4, 11); ("PUNCT {", 4, 13);
    ("IDENT y", 4, 15); ("PUNCT =", 4, 17); ("IDENT a", 4, 19);
    ("OP !=", 4, 21); ("IDENT b", 4, 24); ("PUNCT }", 4, 26);
    ("KW else", 4, 28); ("PUNCT {", 4, 33); ("IDENT z", 4, 35);
    ("PUNCT =", 4, 37); ("IDENT a", 4, 39); ("OP <=", 4, 41);
    ("IDENT b", 4, 44); ("PUNCT }", 4, 46); ("PUNCT ;", 4, 47);
    ("IDENT w", 5, 1); ("PUNCT =", 5, 3); ("IDENT a", 5, 5); ("OP <", 5, 7);
    ("IDENT b", 5, 9); ("OP &&", 5, 11); ("IDENT a", 5, 14); ("OP >", 5, 16);
    ("IDENT b", 5, 18); ("OP ||", 5, 20); ("OP !", 5, 23); ("IDENT a", 5, 24);
    ("OP >=", 5, 26); ("IDENT b", 5, 29);
    ("IDENT a", 6, 1); ("OP ||", 6, 2); ("IDENT b", 6, 4); ("PUNCT ;", 6, 5);
    ("IDENT a", 6, 7); ("PUNCT |||", 6, 9); ("IDENT b", 6, 13);
    ("PUNCT ;", 6, 14); ("IDENT a", 6, 16); ("OP ==", 6, 17);
    ("PUNCT =", 6, 19); ("IDENT b", 6, 20);
    ("KW return", 7, 3); ("INT 0", 7, 10); ("OP ==", 7, 11); ("EOF", 7, 13) ]

(* source, message, line, column *)
let lexer_pin_errors =
  [ ("a | b", "unexpected character '|'", 1, 3);
    ("x &y", "unexpected character '&'", 1, 3);
    ("a = 1;\n  @", "unexpected character '@'", 2, 3);
    ("b |", "unexpected character '|'", 1, 3);
    ("&", "unexpected character '&'", 1, 1) ]

let show_token = function
  | Lexer.INT n -> "INT " ^ string_of_int n
  | Lexer.IDENT s -> "IDENT " ^ s
  | Lexer.KW s -> "KW " ^ s
  | Lexer.PUNCT s -> "PUNCT " ^ s
  | Lexer.OP s -> "OP " ^ s
  | Lexer.EOF -> "EOF"

(* Words [Parser.stmt_of_string] may allocate per catalog pair (source and
   target): 804 with constant tokens, plus headroom.  A lexer that formats
   a string per punctuation character allocates 2 946. *)
let parse_words_per_pair_max = 1200.

let lexer_suite =
  [
    test "lexer: tokens and positions pinned" (fun () ->
        Alcotest.(check (list (triple string int int)))
          "tokens" lexer_pin_tokens
          (List.map
             (fun (t : Lexer.located) -> (show_token t.tok, t.line, t.col))
             (Lexer.tokenize lexer_pin_src));
        List.iter
          (fun (src, msg, line, col) ->
            match Lexer.tokenize src with
            | _ -> Alcotest.failf "%S lexed without an error" src
            | exception Lexer.Error (m, l, c) ->
              Alcotest.(check (triple string int int)) src (msg, line, col)
                (m, l, c))
          lexer_pin_errors);
    test "parse allocation per catalog pair" (fun () ->
        let parse_all () =
          List.iter
            (fun (tr : Litmus.Catalog.transformation) ->
              ignore (Parser.stmt_of_string tr.Litmus.Catalog.src);
              ignore (Parser.stmt_of_string tr.Litmus.Catalog.tgt))
            Litmus.Catalog.transformations
        in
        parse_all ();
        let before = Gc.minor_words () in
        parse_all ();
        let per_pair =
          (Gc.minor_words () -. before)
          /. float (List.length Litmus.Catalog.transformations)
        in
        if per_pair > parse_words_per_pair_max then
          Alcotest.failf "%.0f words per pair (at most %.0f)" per_pair
            parse_words_per_pair_max);
  ]

let suite = suite @ lexer_suite
