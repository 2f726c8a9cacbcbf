(** Historical learning (paper Section IV): the prior distribution of
    the timing-model parameters and the input-condition-dependent model
    precision β(ξ), both learned from characterizations of cell
    libraries in {e other} technology nodes.

    For each historical node and each timing arc, the compact model is
    fitted on a normalized grid of input conditions.  The population of
    extracted parameter vectors gives the Gaussian prior
    [µ_P ~ N(µ0, Σ0)] (Eq. 7); the spread of relative model residuals
    across nodes at each normalized condition gives β(ξ) (Eq. 9),
    interpolated trilinearly in normalized coordinates. *)

type metric = Delay | Slew

val metric_to_string : metric -> string

type fitted_arc = {
  tech_name : string;
  arc_name : string;
  params : Timing_model.params;
  fit_error : float;  (** mean |relative| fitting error *)
}

type t = {
  metric : metric;
  mvn : Slc_prob.Mvn.t;          (** prior over the 4 parameters *)
  beta : Slc_num.Interp.grid3;   (** precision over the unit cube *)
  provenance : fitted_arc list;  (** every historical fit that fed the prior *)
  learn_cost : int;              (** simulator runs consumed *)
}

type pair = { delay : t; slew : t }

val learn_pair :
  ?cells:Slc_cell.Cells.t list ->
  ?grid_levels:int array ->
  historical:Slc_device.Tech.t list ->
  unit ->
  pair
(** Learns delay and slew priors from the same historical simulations
    (each condition is simulated once and both metrics are read). *)

val beta_at : t -> Slc_device.Tech.t -> Slc_cell.Harness.point -> float
(** β(ξ) for a target-technology condition, via normalized
    coordinates. *)

val constant_beta : t -> t
(** Ablation helper: replaces β(ξ) with its grid average (input-
    independent precision). *)

val pp_summary : Format.formatter -> t -> unit
