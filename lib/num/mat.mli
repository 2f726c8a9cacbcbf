(** Dense row-major matrices of floats. *)

type t

val create : int -> int -> t
(** [create r c] is the [r x c] zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val data : t -> float array
(** The underlying row-major storage: element [(i, j)] lives at index
    [i * cols m + j].  Shared, not a copy — intended for hot loops
    (solver stamping, in-place factorizations) that must avoid
    per-element bounds checks and allocation.  Mutating it mutates the
    matrix. *)

val copy : t -> t

val transpose : t -> t

val add : t -> t -> t

val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product; raises [Invalid_argument] on inner-dimension mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec m v] is [m * v]. *)

val gram_into : t -> t -> unit
(** [gram_into j out] stores [jᵀ j] into the pre-allocated
    [cols j x cols j] matrix [out].  Floating-point operations run in
    the exact order of [mul (transpose j) j], so results are bitwise
    identical to the allocating form. *)

val tmul_vec_into : t -> Vec.t -> Vec.t -> unit
(** [tmul_vec_into m v out] stores [m^T * v] into a pre-allocated [out]
    (length [cols m]) without forming the transpose. *)

val add_ridge_into : t -> float -> t -> unit
(** [add_ridge_into m lambda out] is [add_ridge] into a pre-allocated
    [out] of the same shape ([out == m] is not supported). *)

val diag : Vec.t -> t
(** Diagonal matrix from a vector. *)

val trace : t -> float

val is_symmetric : ?tol:float -> t -> bool

val sym_part : t -> t
(** [(m + m^T) / 2]. *)

val add_ridge : t -> float -> t
(** [add_ridge m lambda] adds [lambda] to each diagonal entry (Tikhonov
    regularization); the input is not modified. *)
