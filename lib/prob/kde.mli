(** Gaussian kernel density estimation — used to compare predicted and
    Monte-Carlo delay distributions (paper Fig. 9). *)

type t

val fit : ?bandwidth:float -> float array -> t
(** Builds a KDE over the sample; [bandwidth] defaults to Silverman. *)

val bandwidth : t -> float
[@@slc.test_only
  "the bandwidth fit chose; the tests rebuild the density by brute \
   force from it and check evaluate's window cut-off against that"]

val evaluate : t -> Slc_num.Vec.t -> Slc_num.Vec.t
(** Density at each grid point. *)

val grid : t -> ?pad:float -> int -> Slc_num.Vec.t
(** Evaluation grid spanning the sample range padded by [pad] bandwidths
    (default 3). *)
