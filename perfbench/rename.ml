(* Consistent renaming of registers and locations.

   A renaming inserts one tag right after the first character of every
   register and location name ("X" -> "X_kq3", "a1" -> "a_kq31").  Every
   tag has the same length and every name of a program gets the same tag,
   so a renamed program has the same verdicts, the same order between its
   names and the same string sizes as the original: only its text and its
   fingerprint change.  The seed picks the tags. *)

open Lang

let tag_count = 26 * 26 * 10

let tag_of_index i =
  Printf.sprintf "_%c%c%d"
    (Char.chr (Char.code 'a' + (i / 260)))
    (Char.chr (Char.code 'a' + (i / 10 mod 26)))
    (i mod 10)

(* [n] distinct tags drawn from the seed. *)
let tags ~seed n =
  if n > tag_count then invalid_arg "Rename.tags";
  let st = Random.State.make [| 0x7a6; seed |] in
  let seen = Hashtbl.create n in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let i = Random.State.int st tag_count in
      if Hashtbl.mem seen i then draw acc k
      else begin
        Hashtbl.add seen i ();
        draw (tag_of_index i :: acc) (k - 1)
      end
  in
  draw [] n

let name tag s =
  if s = "" then s
  else String.sub s 0 1 ^ tag ^ String.sub s 1 (String.length s - 1)

let rec expr tag (e : Expr.t) : Expr.t =
  match e with
  | Expr.Const _ -> e
  | Expr.Reg r -> Expr.Reg (Reg.make (name tag (Reg.name r)))
  | Expr.Binop (op, a, b) -> Expr.Binop (op, expr tag a, expr tag b)
  | Expr.Unop (op, a) -> Expr.Unop (op, expr tag a)

let rec stmt tag (s : Stmt.t) : Stmt.t =
  let r x = Reg.make (name tag (Reg.name x)) in
  let l x = Loc.make (name tag (Loc.name x)) in
  let e = expr tag in
  match s with
  | Stmt.Skip | Stmt.Abort -> s
  | Stmt.Assign (x, v) -> Stmt.Assign (r x, e v)
  | Stmt.Load (x, m, y) -> Stmt.Load (r x, m, l y)
  | Stmt.Store (m, y, v) -> Stmt.Store (m, l y, e v)
  | Stmt.Cas (x, y, a, b) -> Stmt.Cas (r x, l y, e a, e b)
  | Stmt.Fadd (x, y, a) -> Stmt.Fadd (r x, l y, e a)
  | Stmt.Fence _ -> s
  | Stmt.Seq (a, b) -> Stmt.Seq (stmt tag a, stmt tag b)
  | Stmt.If (c, a, b) -> Stmt.If (e c, stmt tag a, stmt tag b)
  | Stmt.While (c, a) -> Stmt.While (e c, stmt tag a)
  | Stmt.Choose x -> Stmt.Choose (r x)
  | Stmt.Freeze (x, v) -> Stmt.Freeze (r x, e v)
  | Stmt.Print v -> Stmt.Print (e v)
  | Stmt.Return v -> Stmt.Return (e v)

(* Program texts, renamed and printed back as parseable source. *)
let text tag src = Stmt.to_string (stmt tag (Parser.stmt_of_string src))

let threads_text tag src =
  Parser.threads_of_string src
  |> List.map (fun t -> Stmt.to_string (stmt tag t))
  |> String.concat " ||| "
