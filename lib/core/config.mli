(** Experiment sizing.

    The paper uses 1000 validation points and 1000 Monte-Carlo seeds on
    a compute farm; the defaults here are scaled so the full harness
    finishes in minutes on one core, and every count can be grown with
    a scale (1.0 = defaults, 2.0 = twice the points/seeds...).  Shapes,
    crossovers and speedup factors are stable under scaling; absolute
    error values move slightly with the Monte-Carlo noise floor. *)

type t = {
  scale : float;
  n_validation : int;     (** nominal-experiment validation points *)
  n_validation_stat : int;(** statistical-experiment validation points *)
  n_seeds : int;          (** Monte-Carlo seeds for Fig 7/8 *)
  n_seeds_fig9 : int;
  ks : int list;          (** training-sample sweep for model methods *)
  lut_budgets : int list; (** budget sweep for the LUT method *)
  ks_stat : int list;     (** per-seed training sweep, statistical flow *)
  lut_budgets_stat : int list;
  rng_seed : int;
}

val with_scale : float -> t
(** The defaults with every count grown by [scale] (> 0).  Nothing here
    reads the environment: the CLI binds [SLC_SCALE] to its [--scale]
    option and passes [with_scale] of the result to every experiment. *)
