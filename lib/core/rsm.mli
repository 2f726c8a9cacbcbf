(** Response-surface baseline (the related-work competitor class:
    polynomial regression over the input space, as in Brusamarello et
    al. and the LAR/RSM approaches the paper cites).

    Fits delay or slew as a polynomial in the {e normalized} input
    coordinates by relative-error least squares.  The polynomial degree
    adapts to the sample budget: constant below 4 samples, linear (4
    coefficients) below 10, full quadratic (10 coefficients) from 10
    samples up.  No physics, no prior — pure regression, which is
    exactly why it needs more samples than the compact model. *)

type t

val fit :
  Slc_device.Tech.t ->
  (Input_space.point * float) array ->
  t
(** Raises [Invalid_argument] on an empty sample or non-positive
    observations. *)

val degree : t -> int
[@@slc.test_only
  "the polynomial degree fit chose from the sample budget"]

val eval : t -> Input_space.point -> float
