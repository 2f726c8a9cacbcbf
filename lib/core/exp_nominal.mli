(** Nominal-characterization experiments: the paper's Fig. 5 validation
    spread and Fig. 6 (14-nm error-vs-training-samples comparison with
    the iso-accuracy speedup claim). *)

type fig5_summary = {
  n : int;
  sin_min : float;
  sin_max : float;
  cload_min : float;
  cload_max : float;
  vdd_min : float;
  vdd_max : float;
  points : Input_space.point array;
}

val fig5 : ?n:int -> ?seed:int -> Slc_device.Tech.t -> fig5_summary

val print_fig5 : Format.formatter -> fig5_summary -> unit

type curve = {
  budgets : int array;          (** training simulator runs per arc *)
  mean_err : float array;       (** mean over arcs of the error *)
  std_err : float array;        (** std over arcs (the paper's error bars) *)
}

type fig6_result = {
  tech_name : string;
  arcs : string list;
  n_validation : int;
  bayes_td : curve;
  lse_td : curve;
  rsm_td : curve;
  lut_td : curve;
  bayes_sout : curve;
  lse_sout : curve;
  rsm_sout : curve;
  lut_sout : curve;
  prior_cost : int;             (** historical-learning simulator runs *)
  baseline_cost : int;
  (* Iso-accuracy speedups for delay, relative to the Bayes method at
     its elbow (k = 2): *)
  target_err : float;
  bayes_budget : float;
  lse_budget : float option;
  lut_budget : float option;
  speedup_vs_lut : Char_flow.reach;    (** the paper's headline ~15x *)
  speedup_model_only : float option;   (** LUT vs LSE: contribution of the
                                           compact model alone (~6x) *)
}

val fig6 :
  config:Config.t ->
  ?tech:Slc_device.Tech.t ->
  ?cells:Slc_cell.Cells.t list ->
  prior:Prior.pair ->
  unit ->
  fig6_result
(** Simulates a shared validation baseline per arc, then sweeps the
    training budget for all three methods.  [prior] must be [tech]'s
    prior learned from [Tech.historical_for tech] (the other five
    nodes); the caller learns it once and shares it between drivers.
    [prior_cost] reports its [learn_cost]. *)

val print_fig6 : Format.formatter -> fig6_result -> unit
