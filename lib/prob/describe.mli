(** Descriptive statistics over float-array samples. *)

val mean : float array -> float

val std : float array -> float

val skewness : float array -> float
(** Bias-corrected sample skewness; requires at least three samples. *)

val quantile : float array -> float -> float
(** [quantile xs p] for [p] in [0,1], linear interpolation between order
    statistics (type-7).  Does not modify the input. *)

val min_max : float array -> float * float

val covariance_matrix : Slc_num.Vec.t array -> Slc_num.Mat.t
(** Sample covariance matrix of a set of observation vectors (rows). *)

val mean_vector : Slc_num.Vec.t array -> Slc_num.Vec.t
