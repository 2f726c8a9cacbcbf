(** The paper's ultra-compact analytical timing model (Section III):

    [Td = kd * (Vdd + V') * (Cload + Cpar + alpha * Sin) / Ieff]

    with exactly four parameters [{kd, Cpar, V', alpha}].  The same form
    models output slew with its own parameter values.

    Parameters are kept in display units matching the paper's Table I —
    [Cpar] in fF, [alpha] in fF/ps, [V'] in V, [kd] dimensionless — so
    that parameter vectors are well-scaled (all O(0.01..10)) for the
    optimizers; inputs and outputs stay in SI. *)

type params = {
  kd : float;
  cpar : float;   (** fF *)
  v_off : float;  (** V' in volts, typically negative *)
  alpha : float;  (** fF/ps *)
}

val to_vec : params -> Slc_num.Vec.t
(** [[| kd; cpar; v_off; alpha |]]. *)

val of_vec : Slc_num.Vec.t -> params

val n_params : int
(** 4. *)

val default_init : params
(** Neutral starting point for fits: [kd=0.4, cpar=1.0, v_off=-0.25,
    alpha=0.1]. *)

val eval : params -> ieff:float -> Slc_cell.Harness.point -> float
(** Model value in seconds.  [ieff] in amperes. *)

val grad : params -> ieff:float -> Slc_cell.Harness.point -> Slc_num.Vec.t
(** Gradient of [eval] w.r.t. the parameter vector (seconds per
    unit-parameter). *)

val rel_residual :
  params -> ieff:float -> Slc_cell.Harness.point -> observed:float -> float
(** [(eval - observed) / observed]; the paper states errors and model
    precisions in relative terms. *)

val pp : Format.formatter -> params -> unit
