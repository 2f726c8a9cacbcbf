let rec standard_gaussian rng =
  (* Marsaglia polar method (no per-generator cache, so generators stay
     freely copyable). *)
  let u = Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
  let v = Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || s = 0.0 then standard_gaussian rng
  else u *. sqrt (-2.0 *. log s /. s)

let gaussian rng ~mu ~sigma = mu +. (sigma *. standard_gaussian rng)

let gaussian_quantile ~mu ~sigma p = Slc_num.Special.normal_quantile ~mu ~sigma p

let truncated_gaussian rng ~mu ~sigma ~lo ~hi =
  if lo >= hi then Slc_obs.Slc_error.invalid_input ~site:"Dist.truncated_gaussian" "empty interval";
  let rec draw attempts =
    if attempts > 10_000 then
      (* The interval carries almost no mass; fall back to clamping. *)
      Float.min hi (Float.max lo mu)
    else
      let x = gaussian rng ~mu ~sigma in
      if x >= lo && x <= hi then x else draw (attempts + 1)
  in
  draw 0
