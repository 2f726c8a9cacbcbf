(** Scalar probability distributions: Gaussian sampling and quantiles. *)

val gaussian : Rng.t -> mu:float -> sigma:float -> float
(** Sample from N(mu, sigma^2) by the Marsaglia polar method. *)

val standard_gaussian : Rng.t -> float

val gaussian_quantile : mu:float -> sigma:float -> float -> float

val truncated_gaussian :
  Rng.t -> mu:float -> sigma:float -> lo:float -> hi:float -> float
(** Rejection sampling; requires a non-empty interval that carries
    non-negligible mass. *)
