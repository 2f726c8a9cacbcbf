(** Least-squares extraction of the timing-model parameters — the
    "Proposed Model + LSE" method of the paper's comparisons, and the
    fitting engine used on historical libraries during prior
    learning. *)

type observation = {
  point : Slc_cell.Harness.point;
  ieff : float;     (** effective current at this condition, A *)
  value : float;    (** measured delay or slew, s *)
}

val fit :
  ?workspace:Slc_num.Optimize.lm_workspace ->
  ?init:Timing_model.params ->
  ?weights:float array ->
  observation array ->
  Timing_model.params
(** Minimizes the (optionally weighted) sum of squared relative
    residuals with Levenberg–Marquardt and analytic Jacobians.
    [?workspace] reuses caller-owned LM scratch buffers across calls
    (bitwise-identical results).  With
    fewer observations than parameters the problem is rank-deficient;
    the LM damping still returns the minimum-norm-ish local solution
    the paper's LSE baseline would produce (i.e., poor — that is the
    point of the comparison). *)

val avg_abs_rel_error : Timing_model.params -> observation array -> float
(** Mean |relative error| over the observations (the paper's "% error"
    divided by 100). *)
