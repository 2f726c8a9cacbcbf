(** Simple nonparametric distribution-distance statistics. *)

val ks_two_sample : float array -> float array -> float
(** Two-sample Kolmogorov–Smirnov statistic (sup distance between
    empirical CDFs). *)
