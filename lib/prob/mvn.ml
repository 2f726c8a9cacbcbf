module Vec = Slc_num.Vec
module Mat = Slc_num.Mat
module Linalg = Slc_num.Linalg

type t = { mu : Vec.t; cov : Mat.t; chol : Mat.t }

let make ~mu ~cov =
  let d = Vec.dim mu in
  if Mat.rows cov <> d || Mat.cols cov <> d then
    Slc_obs.Slc_error.invalid_input ~site:"Mvn.make" "dimension mismatch";
  let chol =
    try Linalg.cholesky cov
    with Linalg.Singular _ -> (
      (* Repair a borderline covariance with a tiny relative ridge. *)
      let tr = Float.max 1e-300 (Mat.trace cov /. float_of_int d) in
      let cov' = Mat.add_ridge (Mat.sym_part cov) (1e-9 *. tr) in
      try Linalg.cholesky cov'
      with Linalg.Singular _ ->
        Slc_obs.Slc_error.invalid_input ~site:"Mvn.make" "covariance not positive definite")
  in
  { mu; cov; chol }

let dim t = Vec.dim t.mu

let sample t rng =
  let d = dim t in
  let z = Vec.init d (fun _ -> Dist.standard_gaussian rng) in
  Vec.add t.mu (Mat.mul_vec t.chol z)

let sample_n t rng n = Array.init n (fun _ -> sample t rng)

let of_samples ?(ridge_rel = 1e-6) rows =
  let mu = Describe.mean_vector rows in
  let cov = Describe.covariance_matrix rows in
  let d = Vec.dim mu in
  let tr = Float.max 1e-300 (Mat.trace cov /. float_of_int d) in
  make ~mu ~cov:(Mat.add_ridge cov (ridge_rel *. tr))
