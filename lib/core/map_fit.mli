(** Maximum-a-posteriori parameter extraction (paper Eq. 15):

    minimize  (1/2)(P - µ0)ᵀ Σ0⁻¹ (P - µ0)
            + (1/2) Σᵢ βᵢ rᵢ(P)²

    where [rᵢ] is the relative model residual at fitting condition
    [ξᵢ] and [βᵢ = β(ξᵢ)] the historically learned precision.  Solved
    by Levenberg–Marquardt on the stacked residual vector
    [[L0⁻¹ (P - µ0); √βᵢ rᵢ]] with analytic Jacobians ([L0] the
    Cholesky factor of [Σ0]). *)

type result = {
  params : Timing_model.params;
  posterior_cost : float;    (** value of the MAP objective at the optimum *)
  prior_mahalanobis : float; (** (P-µ0)ᵀ Σ0⁻¹ (P-µ0) at the optimum *)
  data_cost : float;         (** Σ βᵢ rᵢ² at the optimum *)
}

val fit :
  ?workspace:Slc_num.Optimize.lm_workspace ->
  prior:Prior.t ->
  tech:Slc_device.Tech.t ->
  Extract_lse.observation array ->
  result
[@@slc.test_only
  "the MAP fit behind fit_params with its cost decomposition (prior \
   Mahalanobis term, data term) for the tests to check"]
(** MAP fit of the observations under the given prior.  Works with any
    number of observations including zero (then the result is the prior
    mean).  [?workspace] reuses caller-owned LM scratch buffers across
    the per-seed extraction loop; results are bitwise identical with
    and without it. *)

val fit_params :
  ?workspace:Slc_num.Optimize.lm_workspace ->
  prior:Prior.t ->
  tech:Slc_device.Tech.t ->
  Extract_lse.observation array ->
  Timing_model.params
(** [fit] returning only the parameters. *)

(** {2 Sequential-design machinery}

    The adaptive fitting-point design ({!Statistical.design}) selects
    each next simulation by expected information gain.  The two
    functions below expose the pieces: the Gauss–Newton information
    matrix of the MAP objective (the inverse posterior covariance the
    LM fit operates under), and the D-optimal score of a candidate
    condition against it. *)

val information :
  ?prior:Prior.t ->
  tech:Slc_device.Tech.t ->
  at:Timing_model.params ->
  Extract_lse.observation array ->
  Slc_num.Mat.t
(** [information ?prior ~tech ~at obs] is the Gauss–Newton information
    (inverse posterior covariance) of the MAP objective at the
    parameter point [at]:

    A = Σ0⁻¹ + Σᵢ βᵢ g̃ᵢ g̃ᵢᵀ,  with g̃ᵢ = ∇eval(at, ξᵢ) / yᵢ

    — exactly the normal matrix of the stacked residual Jacobian
    {!fit} minimizes over.  Without [?prior] (the LSE regime) the
    prior precision is replaced by a tiny ridge and every βᵢ is 1,
    so the matrix is the pure data information. *)

val predictive_gain :
  ?prior:Prior.t ->
  tech:Slc_device.Tech.t ->
  information:Slc_num.Mat.t ->
  at:Timing_model.params ->
  ieff:float ->
  Slc_cell.Harness.point ->
  float
(** Expected information gain of simulating one more point at the
    candidate condition: β(ξ) · g̃ᵀ A⁻¹ g̃ with g̃ = ∇eval/eval
    (the model's own prediction standing in for the unobserved
    measurement).  Adding the candidate would multiply det A by
    1 + β g̃ᵀA⁻¹g̃ (matrix-determinant lemma), so ranking candidates
    by this score is sequential D-optimal design — equivalently,
    picking the condition where the posterior predictive variance of
    the relative residual is largest. *)
