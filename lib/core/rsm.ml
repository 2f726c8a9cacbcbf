module Mat = Slc_num.Mat
module Linalg = Slc_num.Linalg

type t = {
  tech : Slc_device.Tech.t;
  degree : int;
  coeffs : float array;
}

let n_coeffs ~degree =
  match degree with
  | 0 -> 1
  | 1 -> 4
  | 2 -> 10
  | _ -> Slc_obs.Slc_error.invalid_input ~site:"Rsm.n_coeffs" "degree must be 0, 1 or 2"

(* Monomial basis over normalized coordinates u = (u0, u1, u2). *)
let basis ~degree u =
  match degree with
  | 0 -> [| 1.0 |]
  | 1 -> [| 1.0; u.(0); u.(1); u.(2) |]
  | 2 ->
    [|
      1.0; u.(0); u.(1); u.(2);
      u.(0) *. u.(0); u.(1) *. u.(1); u.(2) *. u.(2);
      u.(0) *. u.(1); u.(0) *. u.(2); u.(1) *. u.(2);
    |]
  | _ -> Slc_obs.Slc_error.invalid_input ~site:"Rsm.basis" "degree must be 0, 1 or 2"

let degree_for n = if n >= 10 then 2 else if n >= 4 then 1 else 0

let fit tech samples =
  let n = Array.length samples in
  if n = 0 then Slc_obs.Slc_error.invalid_input ~site:"Rsm.fit" "no samples";
  Array.iter
    (fun (_, y) -> if y <= 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Rsm.fit" "non-positive value")
    samples;
  let degree = degree_for n in
  let m = n_coeffs ~degree in
  (* Relative least squares: divide each row and target by y. *)
  let a =
    Mat.init n m (fun i j ->
        let point, y = samples.(i) in
        let u = Input_space.normalize tech point in
        (basis ~degree u).(j) /. y)
  in
  let b = Array.make n 1.0 in
  let coeffs = Linalg.solve_least_squares a b in
  { tech; degree; coeffs }

let degree t = t.degree

let eval t point =
  let u = Input_space.normalize t.tech point in
  let phi = basis ~degree:t.degree u in
  let acc = ref 0.0 in
  Array.iteri (fun j c -> acc := !acc +. (c *. phi.(j))) t.coeffs;
  !acc
