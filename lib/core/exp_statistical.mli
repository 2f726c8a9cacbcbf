(** Statistical-characterization experiments: paper Figs. 7, 8 and 9
    (28-nm statistical example). *)

type stat_curve = {
  budgets : int array;
  e_mu_td : float array;
  e_sigma_td : float array;
  e_mu_sout : float array;
  e_sigma_sout : float array;
}

type fig78_result = {
  tech_name : string;
  arc_names : string list;
  n_points : int;
  n_seeds : int;
  baseline_cost : int;
  bayes : stat_curve;
  lse : stat_curve;
  lut : stat_curve;
  (* Iso-accuracy speedups vs the Bayes elbow (the paper quotes 17x for
     µ(Td), 20x for σ(Td), 18x/19x for Sout): *)
  speedup_mu_td : Char_flow.reach;
  speedup_sigma_td : Char_flow.reach;
  speedup_mu_sout : Char_flow.reach;
  speedup_sigma_sout : Char_flow.reach;
}

val fig78 :
  config:Config.t ->
  ?tech:Slc_device.Tech.t ->
  ?arcs:Slc_cell.Arc.t list ->
  prior:Prior.pair ->
  unit ->
  fig78_result
(** Statistical errors (Eqs. 16–19, relative) versus per-seed training
    budget for the three methods, averaged over the given arcs (default:
    one representative arc each of INV, NAND2, NOR2).  [prior] must be
    [tech]'s prior learned from [Tech.historical_for tech]. *)

val print_fig78 : Format.formatter -> fig78_result -> unit

(** {2 Adaptive-budget experiment (active-learning design)} *)

type adaptive_budget_result = {
  ab_tech_name : string;
  ab_arc_names : string list;
  ab_n_points : int;
  ab_n_seeds : int;
  ab_budgets : int array;  (** the common budget sweep (k >= 2) *)
  ab_random : stat_curve;
  ab_adaptive : stat_curve;
  ab_random_sims : int array;
      (** simulator runs spent by the random design at each budget,
          summed over arcs *)
  ab_adaptive_sims : int array;  (** same, for the adaptive design *)
  ab_reference_budget : int;
      (** the accuracy target: the largest random budget whose
          worst-of-four error the adaptive design attains with strictly
          fewer simulations (falls back to the largest budget in the
          sweep when no budget admits strict savings) *)
  ab_reference_error : float;
      (** the random design's worst-of-four error at that budget *)
  ab_match_budget : int option;
      (** smallest adaptive budget whose worst-of-four error is at or
          below [ab_reference_error]; [None] if never reached *)
  ab_match_sims : int option;
      (** simulator runs the adaptive design spent at [ab_match_budget] *)
  ab_sims_saved : int option;
      (** [random sims at the reference budget - ab_match_sims] *)
  ab_gpr_fallbacks : int;
      (** GPR fallback activations during the adaptive sweep (0 when
          telemetry is disabled) *)
}

val adaptive_budget :
  config:Config.t ->
  ?tech:Slc_device.Tech.t ->
  ?arcs:Slc_cell.Arc.t list ->
  prior:Prior.pair ->
  unit ->
  adaptive_budget_result
(** Paired comparison of {!Statistical.Random_per_seed} against
    {!Statistical.Adaptive} (information-gain sequential design with
    GPR fallback) over the budget sweep [config.ks_stat] restricted to
    budgets >= 2.  Both designs draw from generators created in the
    same state, so each adaptive run's candidate pool is sampled from
    the distribution the random design draws its points from.  The
    headline number is how many simulator runs the adaptive design
    saves while matching the random design's worst statistical error
    at its largest budget — the active-learning analogue of the
    paper's Figs. 7–8 simulation-count claims.  [prior] must be
    [tech]'s prior learned from [Tech.historical_for tech]. *)

val print_adaptive_budget : Format.formatter -> adaptive_budget_result -> unit

type fig9_result = {
  point : Input_space.point;
  arc_name : string;
  n_seeds : int;
  k_bayes : int;
  lut_points : int;
  grid : float array;          (** delay axis for the densities, s *)
  pdf_baseline : float array;
  pdf_bayes : float array;
  pdf_lut : float array;
  baseline_skewness : float;
  bayes_skewness : float;
  lut_skewness : float;
  ks_bayes : float;            (** KS distance to the MC baseline *)
  ks_lut : float;
  cost_baseline : int;
  cost_bayes : int;
  cost_lut : int;
}

val fig9 :
  config:Config.t ->
  ?tech:Slc_device.Tech.t ->
  ?arc:Slc_cell.Arc.t ->
  ?point:Input_space.point ->
  prior:Prior.pair ->
  unit ->
  fig9_result
(** Delay probability density at one low-Vdd condition (default: the
    paper's Vdd=0.734 V, Sin=5.09 ps, Cload=1.67 fF) for the MC
    baseline, the proposed method with 7 fitting conditions, and a
    60-point LUT.  [prior] must be [tech]'s prior learned from
    [Tech.historical_for tech].  The two methods' costs are their
    populations' [train_cost]. *)

val print_fig9 : Format.formatter -> fig9_result -> unit
