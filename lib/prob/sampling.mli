(** Space-filling experimental designs over rectangular boxes.  Points are
    returned as arrays of coordinate vectors. *)

type box = (float * float) array
(** Per-dimension (lo, hi) bounds. *)

val random_box : Rng.t -> box -> int -> Slc_num.Vec.t array
(** Independent uniform samples in the box. *)

val latin_hypercube : Rng.t -> box -> int -> Slc_num.Vec.t array
(** Latin hypercube design: each of the [n] points occupies a distinct
    stratum in every dimension. *)

val halton : box -> int -> Slc_num.Vec.t array
(** Deterministic Halton low-discrepancy sequence (bases 2, 3, 5, 7, ...)
    scaled into the box; supports up to 8 dimensions. *)

val full_factorial : box -> levels:int array -> Slc_num.Vec.t array
(** Grid design with [levels.(d)] evenly spaced levels per dimension
    (inclusive of the bounds). *)

val scale_unit : box -> Slc_num.Vec.t -> Slc_num.Vec.t
(** Map a unit-cube point into the box. *)

val to_unit : box -> Slc_num.Vec.t -> Slc_num.Vec.t
(** Map a box point into the unit cube. *)
