(* Construction and comparison helpers shared by the test suites. *)

open Slc_num

(* Component-wise comparison with absolute tolerance [tol]. *)
let vec_close ?(tol = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> not (Float.abs (x -. y) > tol)) a b

let mat_close ?(tol = 1e-9) a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  && vec_close ~tol (Mat.data a) (Mat.data b)

(* A matrix from equal-length rows. *)
let mat_of_rows rows =
  let c = if rows = [||] then 0 else Array.length rows.(0) in
  Mat.init (Array.length rows) c (fun i j -> rows.(i).(j))

(* Trapezoid rule over samples [ys] on the increasing axis [xs]. *)
let trapezoid ~xs ~ys =
  let acc = ref 0.0 in
  for i = 0 to Array.length xs - 2 do
    acc := !acc +. (0.5 *. (ys.(i) +. ys.(i + 1)) *. (xs.(i + 1) -. xs.(i)))
  done;
  !acc

(* A library's interpolated delay and slew for an arc it holds. *)
let library_table lib (arc : Slc_cell.Arc.t) =
  match
    Slc_cell.Library.find lib ~cell:arc.cell.Slc_cell.Cells.name ~pin:arc.pin
      ~out_dir:arc.out_dir
  with
  | Some e -> e.Slc_cell.Library.table
  | None -> raise Not_found

let library_delay lib arc p = Slc_cell.Nldm.lookup_td (library_table lib arc) p

let library_slew lib arc p = Slc_cell.Nldm.lookup_sout (library_table lib arc) p
