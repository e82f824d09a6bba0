(** Hand-written lexer for the WHILE concrete syntax (menhir is not
    available in the sealed toolchain). *)

type token =
  | INT of int
  | IDENT of string
  | KW of string       (* keywords: skip if else while return print ... *)
  | PUNCT of string    (* ( ) { } , ; . = ||| *)
  | OP of string       (* + - * / % == != < <= > >= && || ! *)
  | EOF

type located = { tok : token; line : int; col : int }

exception Error of string * int * int

let keywords =
  [ "skip"; "if"; "else"; "while"; "return"; "print"; "fence"; "abort";
    "choose"; "freeze"; "cas"; "fadd"; "undef"; "load"; "store" ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize (src : string) : located list =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and col = ref 1 in
  let emit tok l c = toks := { tok; line = l; col = c } :: !toks in
  let i = ref 0 in
  let advance () =
    (if !i < n && src.[!i] = '\n' then begin
       incr line;
       col := 1
     end
     else incr col);
    incr i
  in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    let l0 = !line and c0 = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '/' && peek 1 = Some '/' then
      while !i < n && src.[!i] <> '\n' do advance () done
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do advance () done;
      emit (INT (int_of_string (String.sub src start (!i - start)))) l0 c0
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do advance () done;
      let s = String.sub src start (!i - start) in
      if List.mem s keywords then emit (KW s) l0 c0 else emit (IDENT s) l0 c0
    end
    else begin
      (* longest match first; every token is a constant string *)
      let tok, len =
        match c, peek 1, peek 2 with
        | '|', Some '|', Some '|' -> (PUNCT "|||", 3)
        | '=', Some '=', _ -> (OP "==", 2)
        | '!', Some '=', _ -> (OP "!=", 2)
        | '<', Some '=', _ -> (OP "<=", 2)
        | '>', Some '=', _ -> (OP ">=", 2)
        | '&', Some '&', _ -> (OP "&&", 2)
        | '|', Some '|', _ -> (OP "||", 2)
        | '(', _, _ -> (PUNCT "(", 1)
        | ')', _, _ -> (PUNCT ")", 1)
        | '{', _, _ -> (PUNCT "{", 1)
        | '}', _, _ -> (PUNCT "}", 1)
        | ',', _, _ -> (PUNCT ",", 1)
        | ';', _, _ -> (PUNCT ";", 1)
        | '.', _, _ -> (PUNCT ".", 1)
        | '=', _, _ -> (PUNCT "=", 1)
        | '+', _, _ -> (OP "+", 1)
        | '-', _, _ -> (OP "-", 1)
        | '*', _, _ -> (OP "*", 1)
        | '/', _, _ -> (OP "/", 1)
        | '%', _, _ -> (OP "%", 1)
        | '<', _, _ -> (OP "<", 1)
        | '>', _, _ -> (OP ">", 1)
        | '!', _, _ -> (OP "!", 1)
        | _ ->
          raise (Error (Printf.sprintf "unexpected character %C" c, l0, c0))
      in
      emit tok l0 c0;
      for _ = 1 to len do advance () done
    end
  done;
  emit EOF !line !col;
  List.rev !toks
