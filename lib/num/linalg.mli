(** Direct dense linear algebra: Cholesky and in-place LU
    factorizations, solves, SPD inverses.  Sized for the small systems
    this project needs (circuit Jacobians and 4x4 parameter
    covariances), not for large-scale work. *)

exception Singular of string
(** Raised when a factorization meets a (numerically) singular or, for
    Cholesky, non-positive-definite matrix. *)

val cholesky : Mat.t -> Mat.t
(** [cholesky a] returns the lower-triangular [l] with [l * l^T = a] for a
    symmetric positive-definite [a].  Raises {!Singular} otherwise. *)

val solve_spd : Mat.t -> Vec.t -> Vec.t
(** [solve_spd a b] solves [a x = b] for symmetric positive-definite [a]. *)

val cholesky_into : Mat.t -> Mat.t -> unit
(** [cholesky_into a l] is {!cholesky} into the caller-owned square
    matrix [l] (only the lower triangle is written; stale upper-triangle
    entries of a reused buffer are ignored by the solves below).
    Bitwise identical to [cholesky].  Allocation-free. *)

val cholesky_solve_into : Mat.t -> Vec.t -> y:Vec.t -> x:Vec.t -> unit
(** [cholesky_solve_into l b ~y ~x] solves [l l^T x = b] given the
    Cholesky factor [l], into the caller-owned intermediate [y] and
    solution [x] (neither may alias [b]).  Bitwise identical to the
    solve inside {!solve_spd}.  Allocation-free. *)

val spd_inverse : Mat.t -> Mat.t
(** Inverse of a symmetric positive-definite matrix via Cholesky. *)

val lu_factor_in_place : Mat.t -> int array -> float
(** [lu_factor_in_place a perm] overwrites the square matrix [a] with
    its packed LU factors (unit lower + upper) using partial pivoting,
    writes the row permutation into the caller-owned [perm] (length
    [rows a]) and returns the permutation sign.  Allocation-free: meant
    for hot loops that refactor the same workspace matrix repeatedly.
    Raises {!Singular} on singular input (the matrix is left partially
    factored). *)

val lu_solve_in_place : Mat.t -> int array -> b:Vec.t -> x:Vec.t -> unit
(** [lu_solve_in_place a perm ~b ~x] solves the system factored by
    {!lu_factor_in_place} into the caller-owned [x] (which must not
    alias [b]); [b] is left untouched.  Allocation-free. *)

val lower_solve : Mat.t -> Vec.t -> Vec.t
(** Forward substitution with a lower-triangular matrix. *)

val expm : Mat.t -> Mat.t
[@@slc.test_only
  "the exact response of a linear RC ladder that the transient \
   integrators are checked against"]
(** Matrix exponential by scaling-and-squaring with a (6,6) Padé
    approximant — used to compute exact linear-circuit responses when
    validating the transient integrators. *)

val solve_least_squares : Mat.t -> Vec.t -> Vec.t
(** [solve_least_squares a b] minimizes [||a x - b||_2] via the normal
    equations with a tiny ridge for robustness.  Requires
    [rows a >= cols a]. *)
