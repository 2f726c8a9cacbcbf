module Optimize = Slc_num.Optimize
module Mat = Slc_num.Mat

type observation = {
  point : Slc_cell.Harness.point;
  ieff : float;
  value : float;
}

let residuals_of ?(weights = [||]) obs v =
  let p = Timing_model.of_vec v in
  Array.mapi
    (fun i o ->
      let w = if Array.length weights = 0 then 1.0 else weights.(i) in
      w *. Timing_model.rel_residual p ~ieff:o.ieff o.point ~observed:o.value)
    obs

let jacobian_of ?(weights = [||]) obs v =
  let p = Timing_model.of_vec v in
  Mat.init (Array.length obs) Timing_model.n_params (fun i j ->
      let o = obs.(i) in
      let w = if Array.length weights = 0 then 1.0 else weights.(i) in
      let g = Timing_model.grad p ~ieff:o.ieff o.point in
      w *. g.(j) /. o.value)

let fit ?workspace ?(init = Timing_model.default_init) ?weights obs =
  if Array.length obs = 0 then Slc_obs.Slc_error.invalid_input ~site:"Extract_lse.fit" "no observations";
  Array.iter
    (fun o ->
      if o.value <= 0.0 then
        Slc_obs.Slc_error.invalid_input ~site:"Extract_lse.fit" "non-positive observation")
    obs;
  (match weights with
  | Some w when Array.length w <> Array.length obs ->
    Slc_obs.Slc_error.invalid_input ~site:"Extract_lse.fit" "weights length mismatch"
  | _ -> ());
  let result =
    Optimize.levenberg_marquardt ?workspace
      ~residuals:(residuals_of ?weights obs)
      ~jacobian:(jacobian_of ?weights obs)
      ~x0:(Timing_model.to_vec init) ()
  in
  Timing_model.of_vec result.Optimize.x

let abs_rel_errors p obs =
  Array.map
    (fun o ->
      Float.abs
        (Timing_model.rel_residual p ~ieff:o.ieff o.point ~observed:o.value))
    obs

let avg_abs_rel_error p obs =
  if Array.length obs = 0 then Slc_obs.Slc_error.invalid_input ~site:"Extract_lse.avg_abs_rel_error" "empty";
  Slc_num.Vec.mean (abs_rel_errors p obs)
