(** Multivariate normal distributions over small parameter spaces. *)

type t = private {
  mu : Slc_num.Vec.t;
  cov : Slc_num.Mat.t;
  chol : Slc_num.Mat.t;  (** lower Cholesky factor of [cov] *)
}

val make : mu:Slc_num.Vec.t -> cov:Slc_num.Mat.t -> t
(** Raises [Invalid_argument] if [cov] is not symmetric positive-definite
    (after an automatic tiny-ridge repair attempt) or dimensions
    mismatch. *)

val sample_n : t -> Rng.t -> int -> Slc_num.Vec.t array
[@@slc.test_only
  "draws mu + chol z: the draws recover mu and cov, which pins the \
   Cholesky factor Map_fit whitens the prior with"]

val of_samples : ?ridge_rel:float -> Slc_num.Vec.t array -> t
(** Fit mean and covariance from observation rows; [ridge_rel] (default
    [1e-6]) scales a diagonal ridge relative to the mean diagonal
    variance, keeping near-degenerate sample covariances usable. *)
