module Vec = Slc_num.Vec
module Mat = Slc_num.Mat
module Linalg = Slc_num.Linalg
module Mvn = Slc_prob.Mvn

type message = { mu : Vec.t; cov : Mat.t }

let diffuse dim =
  if dim < 1 then Slc_obs.Slc_error.invalid_input ~site:"Belief.diffuse" "dimension must be >= 1";
  { mu = Vec.create dim; cov = Mat.scale 10.0 (Mat.identity dim) }

let observe msg rows =
  let n = Array.length rows in
  if n = 0 then msg
  else begin
    let dim = Vec.dim msg.mu in
    let mean = Slc_prob.Describe.mean_vector rows in
    let obs_cov =
      if n >= 2 then
        Mat.scale (1.0 /. float_of_int n)
          (Mat.add_ridge (Slc_prob.Describe.covariance_matrix rows) 1e-6)
      else
        (* A single observation: assume a typical within-node spread. *)
        Mat.scale 0.01 (Mat.identity dim)
    in
    (* Posterior precision = prior precision + observation precision. *)
    let prior_prec = Linalg.spd_inverse (Mat.add_ridge msg.cov 1e-12) in
    let obs_prec = Linalg.spd_inverse (Mat.add_ridge obs_cov 1e-12) in
    let post_prec = Mat.add prior_prec obs_prec in
    let post_cov = Linalg.spd_inverse post_prec in
    let rhs =
      Vec.add (Mat.mul_vec prior_prec msg.mu) (Mat.mul_vec obs_prec mean)
    in
    { mu = Mat.mul_vec post_cov rhs; cov = post_cov }
  end

let drift msg q =
  if Mat.rows q <> Vec.dim msg.mu then
    Slc_obs.Slc_error.invalid_input ~site:"Belief.drift" "dimension mismatch";
  { msg with cov = Mat.add msg.cov q }

(* Node-to-node movement of {kd, Cpar, V', alpha} in their natural
   units, judged from Table-I-scale variation. *)
let default_drift dim =
  let sigmas = [| 0.02; 0.10; 0.02; 0.02 |] in
  Mat.diag (Array.init dim (fun i ->
      let s = if i < Array.length sigmas then sigmas.(i) else 0.05 in
      s *. s))

let chain nodes =
  match nodes with
  | [] -> Slc_obs.Slc_error.invalid_input ~site:"Belief.chain" "empty chain"
  | (_, first) :: _ ->
    let dim =
      if Array.length first > 0 then Vec.dim first.(0)
      else Timing_model.n_params
    in
    let q = default_drift dim in
    List.fold_left
      (fun msg (_, rows) -> observe (drift msg q) rows)
      (diffuse dim) nodes

let chain_prior (prior : Prior.t) ~ordered =
  let by_tech name =
    List.filter_map
      (fun (f : Prior.fitted_arc) ->
        if String.equal f.Prior.tech_name name then
          Some (Timing_model.to_vec f.Prior.params)
        else None)
      prior.Prior.provenance
  in
  let nodes =
    List.filter_map
      (fun name ->
        match by_tech name with
        | [] -> None
        | rows -> Some (name, Array.of_list rows))
      ordered
  in
  if nodes = [] then Slc_obs.Slc_error.invalid_input ~site:"Belief.chain_prior" "no matching nodes";
  let msg = chain nodes in
  (* The chain tracks the mean; widen by the within-node parameter
     spread so the prior remains honest about arc-to-arc variation. *)
  let all_rows =
    Array.of_list
      (List.map
         (fun (f : Prior.fitted_arc) -> Timing_model.to_vec f.Prior.params)
         prior.Prior.provenance)
  in
  let within = Slc_prob.Describe.covariance_matrix all_rows in
  let cov = Mat.add msg.cov within in
  { prior with Prior.mvn = Mvn.make ~mu:msg.mu ~cov }
