(* Files the benchmark writes, all under [out_dir] in the checkout. *)

let out_dir = "perfbench/out"

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* A path under [out_dir] that nothing occupies, unique to this process.
   Its name has the same length in every run, so the words spent on paths
   do not depend on the process id. *)
let fresh_path =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let path =
      Printf.sprintf "%s/%s-%010d-%06d" out_dir prefix (Unix.getpid ()) !n
    in
    remove_tree path;
    path

let fresh_dir prefix =
  let dir = fresh_path prefix in
  mkdir_p dir;
  dir
