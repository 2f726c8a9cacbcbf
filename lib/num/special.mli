(** Special functions for probability computations. *)

val normal_cdf : ?mu:float -> ?sigma:float -> float -> float
[@@slc.test_only
  "the CDF normal_quantile inverts: the tests check the round trip and \
   sampled distributions against it"]
(** Standard parameters default to [mu = 0], [sigma = 1]. *)

val normal_quantile : ?mu:float -> ?sigma:float -> float -> float
(** Inverse normal CDF (Acklam's algorithm, |rel err| < 1.2e-9).  The
    probability argument must lie strictly inside (0, 1). *)
