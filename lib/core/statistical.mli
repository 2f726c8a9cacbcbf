(** Statistical library characterization (paper Section IV, last part,
    and the Section V 28-nm example).

    [N_sample] process seeds are drawn.  For each seed the chosen method
    is trained with its budget of per-seed simulations; pushing the
    per-seed models through any input condition yields the predicted
    delay/slew distribution there.  The Monte-Carlo baseline simulates
    every (validation point x seed) pair. *)

type method_ =
  | Bayes of Prior.pair  (** MAP extraction under the historical prior *)
  | Lse                  (** plain least-squares extraction *)
  | Lut                  (** per-seed NLDM table *)

val method_label : method_ -> string

(** Per-seed extraction outcome. *)
type seed_status =
  | Seed_ok  (** every design point simulated; full-quality fit *)
  | Seed_degraded of int
      (** fit proceeded on the surviving design points; the payload is
          the number of (seed, point) simulations that failed *)
  | Seed_failed of exn
      (** too few surviving points to fit (or, for [Lut], the grid
          build failed); the payload is the first failure.  Predicting
          through this seed re-raises it. *)

type population = {
  meth : method_;
  seeds : Slc_device.Process.seed array;
  status : seed_status array;
      (** per-seed outcome, indexed by [Process.index]; all [Seed_ok]
          when every simulation converged *)
  predictors : Char_flow.predictor option array;
      (** the per-seed trained predictors behind [predict_td]/
          [predict_sout], indexed like [status] ([None] = failed seed).
          Each predictor's {!Char_flow.model} is what the persistent
          store serializes. *)
  train_cost : int;  (** total simulator runs over all seeds *)
  predict_td : Slc_device.Process.seed -> Input_space.point -> float;
  predict_sout : Slc_device.Process.seed -> Input_space.point -> float;
}

type adaptive = {
  a_rng : Slc_prob.Rng.t;
      (** source of each seed's candidate pool, derived per seed with
          [Rng.split_ix] (pure; the generator is not advanced) *)
  a_candidates : int;
      (** candidate-pool size per seed; must be at least the budget *)
  a_gpr_threshold : float;
      (** mean |relative error| on the observed points above which (a)
          the acquisition switches from the parametric information
          gain to the GP surrogate's posterior variance, and (b) the
          final predictor falls back to a GPR model
          ({!Char_flow.with_gpr_fallback}) *)
}
(** Acquisition hyperparameters of the {!Adaptive} design.  All three
    enter the persistent store's population key, so stored adaptive
    populations can never be served to a run with different
    acquisition settings. *)

val adaptive_defaults : Slc_prob.Rng.t -> adaptive
(** 24 candidates, {!Char_flow.default_gpr_threshold}. *)

type design =
  | Curated
      (** every seed fits on the same deterministic
          {!Input_space.fitting_points} design *)
  | Random_per_seed of Slc_prob.Rng.t
      (** seed [i] fits on points drawn from [Rng.split_ix rng i] — a
          pure per-index derivation, so the designs (and therefore all
          results) are bitwise independent of domain count and
          scheduling order, and the supplied generator is not
          advanced *)
  | Adaptive of adaptive
      (** active learning (ROADMAP item 4): each seed's k points are
          chosen {e sequentially} from its candidate pool by expected
          information gain — refit the delay model on the observations
          so far, score every remaining candidate by
          {!Map_fit.predictive_gain} against the incremental MAP
          posterior information (or by {!Gpr.predict_var} once the
          analytical residuals exceed [a_gpr_threshold]), simulate the
          argmax, repeat.  Each round simulates every seed's pick with
          one {!Slc_cell.Harness.simulate_batch} call; every
          per-seed choice is a pure function of that seed's own
          sub-stream and observations, so results keep the
          [Random_per_seed] bitwise determinism guarantees.  Spends
          the same per-seed budget as the fixed designs but places it
          where the posterior is least certain — fewer simulations at
          equal mean/σ error (the [fig78/adaptive-budget] bench
          section measures exactly this). *)

val extract_population :
  ?min_points:int ->
  method_:method_ ->
  tech:Slc_device.Tech.t ->
  arc:Slc_cell.Arc.t ->
  seeds:Slc_device.Process.seed array ->
  budget:int ->
  unit ->
  population
(** Trains the method independently for every seed with [budget]
    simulator runs each ([k] fitting points for model methods, grid
    size for LUT), on the [Curated] design.

    All (seed × point) simulations go through the worker pool as one
    flat batch, then the per-seed fits run as a second batch with one
    LM workspace per worker domain.

    {b Graceful degradation}: a (seed, point) simulation that raises
    costs only that design point.  A seed keeps fitting while at least
    [min_points] (default 2) of its design points survive — reported
    [Seed_degraded] — and becomes [Seed_failed] below that.  Seeds
    with no failures take the byte-for-byte historical code path, so
    their fits are bitwise identical to a failure-free run. *)

val extract_population_design :
  ?min_points:int ->
  design:design ->
  method_:method_ ->
  tech:Slc_device.Tech.t ->
  arc:Slc_cell.Arc.t ->
  seeds:Slc_device.Process.seed array ->
  budget:int ->
  unit ->
  population
(** {!extract_population} with an explicit fitting-point design (the
    design choice is ignored by [Lut], which builds its own grid). *)

(** {2 Checkpointable decomposition}

    [Slc_store] resumes interrupted extractions by re-running only the
    seeds a checkpoint is missing.  That requires the extraction core
    in a subset-friendly shape: {!extract_seed_models} trains any seed
    subset (arrays are positional; per-seed designs still key off each
    seed's [Process.index], so a subset computes exactly what the full
    batch would), and {!assemble} packages per-seed results — fresh,
    resumed, or loaded — into a {!population}. *)

type seed_models = {
  sm_predictors : Char_flow.predictor option array;
      (** positional: entry [i] belongs to [seeds.(i)] of the call *)
  sm_status : seed_status array;
}

val extract_seed_models :
  ?min_points:int ->
  design:design ->
  method_:method_ ->
  tech:Slc_device.Tech.t ->
  arc:Slc_cell.Arc.t ->
  seeds:Slc_device.Process.seed array ->
  budget:int ->
  unit ->
  seed_models
(** The simulation-and-fitting core of {!extract_population_design},
    returning positional per-seed results instead of a population.
    Because every seed's design and fit depend only on that seed (the
    [Random_per_seed] design derives from [Process.index], not array
    position), running seeds in any grouping — one batch, many
    checkpointed batches, or a resumed remainder — produces bitwise
    identical per-seed predictors. *)

val assemble :
  method_:method_ ->
  seeds:Slc_device.Process.seed array ->
  predictors:Char_flow.predictor option array ->
  status:seed_status array ->
  train_cost:int ->
  population
(** Packages per-seed results into a {!population}.  [seeds] must be
    indexed by [Process.index] (i.e. [seeds.(i).index = i]), as
    {!Slc_device.Process.sample_batch} produces; [predictors] and
    [status] are positional and must have the same length.  Raises
    [Invalid_argument] on a length mismatch. *)

val predict_samples :
  population -> Input_space.point -> td:bool -> float array
(** Per-seed predicted values at one condition ([td:false] gives output
    slew).  [Seed_failed] seeds are skipped, so the array length is the
    number of surviving seeds. *)

val predict_density :
  population -> Input_space.point -> td:bool -> grid:int ->
  (float * float) array
(** The predicted delay (or slew, [td:false]) distribution at one
    condition, as [(value, density)] pairs on a [grid]-point KDE grid
    over the surviving seeds' predictions (the paper's Fig 9 curve, as
    a query).  Deterministic: same population and condition, bitwise
    same curve.  Raises through {!Slc_obs.Slc_error} when fewer than 2
    seeds survive or [grid < 2].  This is the re-entrant pdf entry
    point the characterization server answers [pdf] requests with. *)

type baseline = {
  points : Input_space.point array;
  mu_td : float array;
  sigma_td : float array;
  mu_sout : float array;
  sigma_sout : float array;
  samples_td : float array array;
      (** [point][seed] raw values; [nan] marks a failed pair *)
  samples_sout : float array array;
  failed : (int * int) list;
      (** (point index, seed index) pairs whose simulation raised;
          [[]] for a clean run *)
  cost : int;
}

val monte_carlo_baseline :
  tech:Slc_device.Tech.t ->
  arc:Slc_cell.Arc.t ->
  seeds:Slc_device.Process.seed array ->
  points:Input_space.point array ->
  baseline
(** Simulates every (point × seed) pair.  Pairs that raise are recorded
    in [failed] and excluded from the per-point moment estimates (the
    statistics run over the survivors); with no failures the result is
    bitwise identical to the historical behaviour. *)

type stat_errors = {
  e_mu_td : float;     (** mean relative |µ̂ - µ| over points *)
  e_sigma_td : float;  (** mean relative |σ̂ - σ| / σ over points *)
  e_mu_sout : float;
  e_sigma_sout : float;
}

val evaluate : population -> baseline -> stat_errors
(** Paper Eqs. 16–19 in relative form. *)
