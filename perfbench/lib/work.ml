(* The run's scratch directory, inside the checkout the benchmark runs
   from.  Removed when the run ends. *)

let root = ".bench_work"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left
      (fun acc f -> acc + bytes (Filename.concat path f))
      0 (Sys.readdir path)
  | _ -> (Unix.lstat path).Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* A fresh, empty directory under [root]. *)
let fresh name =
  let dir = Filename.concat root name in
  rm_rf dir;
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  Unix.mkdir dir 0o755;
  dir
