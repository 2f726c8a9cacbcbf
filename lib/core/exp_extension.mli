(** Extension experiment beyond the paper's evaluation: multi-Vt
    library options.

    The paper's introduction motivates the cost problem with the
    growing number of design options (multi-Vt, multi-Vdd) and its
    Section IV notes that the best historical libraries are those with
    the same process choices as the target.  This experiment builds an
    LVT (low-threshold) flavor of the 14-nm node and characterizes it
    with priors learned from (a) the regular-Vt historical nodes and
    (b) LVT flavors of the same nodes — measuring the bias cost of a
    mismatched prior and comparing both against the LUT baseline. *)

type result = {
  target_name : string;
  vt_shift : float;
  k : int;
  err_rvt_prior : float;     (** Td error with the mismatched prior *)
  err_matched_prior : float; (** Td error with the flavor-matched prior *)
  err_lut : float;           (** LUT at [lut_budget] *)
  lut_budget : int;
}

val vt_transfer :
  config:Config.t ->
  ?tech:Slc_device.Tech.t ->
  ?vt_shift:float ->
  ?k:int ->
  ?lut_budget:int ->
  unit ->
  result
(** Defaults: n14, [vt_shift = -0.06] V (LVT), [k = 2],
    [lut_budget = 18]. *)

val print_result : Format.formatter -> result -> unit
