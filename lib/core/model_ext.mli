(** Extended timing model with the paper's suggested cross term
    (Section III: "for some technologies ... extra fitting terms
    (e.g., Sin·Cload) might be needed").

    [Td = kd·(Vdd+V')·(Cload + Cpar + α·Sin + γ·Sin·Cload) / Ieff]

    Five parameters instead of four — the model-complexity ablation
    quantifies the accuracy-vs-compression tradeoff the paper
    mentions. *)

type params = {
  base : Timing_model.params;
  gamma : float;  (** cross-term coefficient, 1/ps (the term
                      γ·Sin[ps]·Cload[fF] is in fF) *)
}

val of_base : Timing_model.params -> params
(** Embeds the 4-parameter model ([gamma = 0]). *)

val eval : params -> ieff:float -> Slc_cell.Harness.point -> float
[@@slc.test_only
  "the model fit minimizes the relative error of: at gamma = 0 it is \
   the base model"]

val grad : params -> ieff:float -> Slc_cell.Harness.point -> Slc_num.Vec.t
[@@slc.test_only
  "the Jacobian row fit's least squares uses, in the order \
   [kd; cpar; v_off; alpha; gamma]; checked against finite differences"]

val fit : ?init:params -> Extract_lse.observation array -> params
(** Least-squares extraction of all five parameters. *)

val avg_abs_rel_error : params -> Extract_lse.observation array -> float
