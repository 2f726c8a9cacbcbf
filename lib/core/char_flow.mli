(** Nominal characterization flows and their cost accounting.

    Three methods answer "delay/slew at any input condition ξ" for one
    timing arc, each trained with a given budget of simulator runs:

    - {b Bayes}: the paper's method — k simulations, MAP extraction
      under the historical prior;
    - {b LSE}: the compact model fitted by plain least squares on the
      same k simulations (no prior);
    - {b LUT}: a conventional NLDM grid of ~budget points with
      trilinear interpolation.

    All methods are evaluated against a common simulated baseline
    dataset, with mean absolute relative error as in the paper. *)

type dataset = {
  arc : Slc_cell.Arc.t;
  points : Input_space.point array;
  td : float array;
  sout : float array;
  cost : int;  (** simulator runs spent building this dataset *)
}

val simulate_dataset :
  ?seed:Slc_device.Process.seed ->
  Slc_device.Tech.t ->
  Slc_cell.Arc.t ->
  Input_space.point array ->
  dataset

val ieff_at :
  ?seed:Slc_device.Process.seed ->
  Slc_device.Tech.t ->
  Slc_cell.Arc.t ->
  Input_space.point ->
  float
[@@slc.test_only
  "the Ieff a compact-model predictor divides by; the tests rebuild a \
   predictor's answers bitwise from it"]
(** The arc's equivalent-inverter drive current at the point's supply,
    with the seed's global shifts (default nominal): the [Ieff] a
    compact-model predictor divides by.  A model predictor answers
    bitwise [Timing_model.eval params ~ieff:(ieff_at ?seed tech arc pt)
    pt]; it builds the seeded equivalent device once, when it is
    built (so an arc whose network cannot conduct raises there), and
    the tests pin that this changes no bit. *)

(** The serializable substance behind a predictor: what must be
    persisted so another process can rebuild the same predictions
    without re-simulating.  The closures in {!predictor} are pure
    functions of this model (plus tech/arc/seed), so storing the model
    and rebuilding with {!predictor_of_model} reproduces every
    prediction bitwise. *)
type model =
  | Timing_pair of { td : Timing_model.params; sout : Timing_model.params }
      (** the paper's 4-parameter compact model, one fit per metric
          (Bayes/MAP and LSE flows) *)
  | Nldm_table of Slc_cell.Nldm.t  (** a conventional look-up table *)
  | Gpr_pair of { td : Gpr.model; sout : Gpr.model }
      (** nonparametric Gaussian-process fallback, one GP per metric —
          trained when the analytical form's residuals exceed a
          threshold (see {!with_gpr_fallback}); rebuilt bitwise from
          its stored training set by {!Gpr.refit} *)
  | Opaque
      (** not serializable (e.g. the RSM baseline); the persistent
          store refuses these *)

type predictor = {
  label : string;
  train_cost : int;  (** simulator runs spent training *)
  model : model;     (** the persistable parameters behind the closures *)
  predict_td : Input_space.point -> float;
  predict_sout : Input_space.point -> float;
}

val predictor_of_model :
  ?seed:Slc_device.Process.seed ->
  label:string ->
  train_cost:int ->
  Slc_device.Tech.t ->
  Slc_cell.Arc.t ->
  model ->
  predictor
(** Rebuilds a predictor from its persisted model.  The closures are
    constructed exactly as training would have built them, so for the
    same (model, tech, arc, seed) the predictions are bitwise identical
    to the original predictor's.  Raises [Invalid_argument] for
    {!Opaque}. *)

val train_bayes :
  ?seed:Slc_device.Process.seed ->
  ?points:Input_space.point array ->
  prior:Prior.pair ->
  Slc_device.Tech.t ->
  Slc_cell.Arc.t ->
  k:int ->
  predictor
(** [points] overrides the default curated fitting design (its length
    must then be [k]); used by the design ablation. *)

val train_bayes_on :
  ?workspace:Slc_num.Optimize.lm_workspace ->
  ?seed:Slc_device.Process.seed ->
  prior:Prior.pair ->
  Slc_device.Tech.t ->
  dataset ->
  predictor
(** The fitting half of {!train_bayes} on an already-simulated dataset
    — lets callers batch the simulations of many seeds through one
    parallel map and then fit per seed, reusing a caller-owned LM
    [?workspace].  [train_cost] is the dataset's cost. *)

val train_lse :
  ?seed:Slc_device.Process.seed ->
  ?points:Input_space.point array ->
  Slc_device.Tech.t ->
  Slc_cell.Arc.t ->
  k:int ->
  predictor

val train_lse_on :
  ?workspace:Slc_num.Optimize.lm_workspace ->
  ?seed:Slc_device.Process.seed ->
  Slc_device.Tech.t ->
  dataset ->
  predictor
(** The fitting half of {!train_lse} on an already-simulated dataset;
    see {!train_bayes_on}. *)

val train_rsm :
  ?seed:Slc_device.Process.seed ->
  ?points:Input_space.point array ->
  Slc_device.Tech.t ->
  Slc_cell.Arc.t ->
  k:int ->
  predictor
(** Response-surface baseline: polynomial regression over normalized
    inputs fitted to the same [k] simulations the model methods use
    (degree adapts to [k]; see {!Rsm}). *)

val train_lut :
  ?seed:Slc_device.Process.seed ->
  Slc_device.Tech.t ->
  Slc_cell.Arc.t ->
  budget:int ->
  predictor
(** Builds the largest NLDM grid whose size does not exceed [budget];
    [train_cost] is the actual grid size. *)

type errors = { td_err : float; sout_err : float }
(** Mean absolute relative errors over a dataset. *)

val evaluate : predictor -> dataset -> errors

val default_gpr_threshold : float
(** Default residual threshold (mean |relative error| on the training
    set, [0.05]) above which the analytical fit is considered poor. *)

val with_gpr_fallback :
  ?workspace:Gpr.workspace ->
  threshold:float ->
  Slc_device.Tech.t ->
  dataset ->
  predictor ->
  predictor
(** [with_gpr_fallback ~threshold tech ds p] keeps [p] when it
    reproduces its own training dataset to within [threshold] (mean
    absolute relative error, worse of the two metrics), and otherwise
    replaces it with {!train_gpr_on} — the regime (break points,
    low-Vdd corners) where the 4-parameter form is structurally wrong
    and a nonparametric model earns its keep.  Increments the
    [gpr_fallbacks] telemetry counter when it switches. *)

val budget_to_reach :
  curve:(int * float) list -> target:float -> float option
(** Given (budget, error) pairs for one method, the (log-interpolated)
    budget at which the method first reaches [target] error; [None] if
    it never does.  Used for the paper's iso-accuracy speedup claims. *)

type reach =
  | Reached of float  (** iso-accuracy speedup factor *)
  | At_least of float (** the other method never reached the target
                          within its sweep; factor is a lower bound from
                          its largest budget *)

val speedup_vs :
  budget:float -> curve:(int * float) list -> target:float -> reach
(** Speedup of a method that achieves [target] error with [budget] runs
    over the method described by [curve]. *)

val pp_reach : Format.formatter -> reach -> unit
