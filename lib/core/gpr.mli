(** Exact-inference Gaussian-process regression over the library input
    space ξ = (Sin, Cload, Vdd).

    A squared-exponential kernel with per-dimension (ARD) length-scales
    on the {e normalized} input cube ({!Input_space.normalize}), exact
    posterior via a dense Cholesky factorization
    ({!Slc_num.Linalg.cholesky_into}) — sized for the ultra-small
    training sets of this flow (a handful to a few dozen points), not
    for large-scale GP work.

    Two roles in the characterization flow (see
    [docs/characterization.md]):

    - {b acquisition surrogate}: when the analytical 4-parameter form
      fits the observed points poorly, the adaptive design
      ({!Statistical.design}) ranks candidate conditions by GP
      posterior predictive variance instead of the parametric
      information gain;
    - {b fallback predictor}: a {!Char_flow.model} variant
      ([Gpr_pair]) serves arcs where the analytical fit stays poor,
      and round-trips through the persistent store like every other
      artifact.

    Everything here is deterministic: {!fit} with the same inputs is
    bitwise reproducible, and {!refit} of a stored {!model} rebuilds a
    posterior whose predictions are bitwise identical to the
    original's (the contract the store's Hexfloat round-trip relies
    on). *)

type hyper = {
  signal2 : float;  (** signal variance σ_f², in squared target units *)
  noise2 : float;   (** observation-noise variance σ_n² on the diagonal *)
  lengths : float array;
      (** ARD length-scales, one per normalized input dimension
          (Sin, Cload, Vdd), in unit-cube units *)
}

type model = {
  m_hyper : hyper;
  m_mean : float;  (** constant prior mean (the training-target average) *)
  m_points : Input_space.point array;  (** training inputs, raw units *)
  m_targets : float array;             (** training observations *)
}
(** The serializable substance of a fitted GP: hyperparameters plus the
    raw training set.  The posterior (Cholesky factor and dual weights)
    is redundant — {!refit} reconstructs it deterministically, which is
    what keeps the store format small and the round-trip bitwise. *)

type t
(** A fitted posterior: a {!model} together with its normalized inputs,
    the lower Cholesky factor of K + σ_n²·I and the dual weights
    α = (K + σ_n²·I)⁻¹ (y − mean). *)

val model : t -> model
(** The serializable part of a fitted posterior. *)

type workspace
(** Caller-owned scratch buffers (kernel-matrix assembly, solve
    intermediates, predictive k*-vectors), grown on demand and reused
    across fits and predictions.  One per worker domain
    ({!Slc_num.Parallel.Slot}) keeps the adaptive-design inner loop
    allocation-lean.  Results are bitwise identical with and without
    a workspace. *)

val workspace : unit -> workspace

val fit :
  ?workspace:workspace ->
  ?hyper:hyper ->
  Slc_device.Tech.t ->
  Input_space.point array ->
  float array ->
  t
(** [fit tech points targets] conditions the GP on the observations.
    [?hyper] overrides {!default_hyper}.  Raises through
    {!Slc_obs.Slc_error} on an empty or length-mismatched training
    set, and {!Slc_num.Linalg.Singular} if the kernel matrix is not
    positive definite (impossible with the default noise floor). *)

val refit : ?workspace:workspace -> Slc_device.Tech.t -> model -> t
(** Rebuilds the posterior of a (de)serialized model.  Bitwise: for
    the same model and technology, [predict]/[predict_var] through the
    result equal the original fit's predictions bit for bit. *)

val predict : ?workspace:workspace -> t -> Input_space.point -> float
(** Posterior predictive mean [m + ks' * alpha] at one condition. *)

val predict_var : ?workspace:workspace -> t -> Input_space.point -> float
(** Posterior predictive variance of the latent function,
    [k(x, x) - |inv(L) ks|^2], clamped at [0].  The adaptive design's
    acquisition score when the GP surrogate is active. *)
