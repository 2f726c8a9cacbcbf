(** Interpolation on rectilinear grids: 1-D linear and 3-D trilinear,
    with linear extrapolation outside the grid.  These are the
    interpolation schemes used by NLDM-style timing look-up tables. *)

type axis = private float array
(** A grid axis: at least one point, strictly increasing.  It is
    validated once, by {!axis} (or the grid and reader functions built
    on it), so {!locate} does no per-call scan.  {!axis} validates a
    copy of its argument, so the caller's array stays its own. *)

val axis : float array -> axis option
(** [Some] a copy of the array as an axis when it has at least one
    point and is strictly increasing (so holds no NaN), [None]
    otherwise; callers turn [None] into their own typed error. *)

val locate : axis -> float -> int
(** [locate axis x] returns the index [i] of the cell such that
    [axis.(i) <= x <= axis.(i+1)], clamped to [0 .. dim axis - 2] (this
    clamping yields linear extrapolation at the ends).  A one-point
    axis has the one cell [0]; callers hold values constant along it.
    O(log n), allocation-free. *)

val linear1d : axis -> Vec.t -> float -> float
(** [linear1d xs ys x]: piecewise-linear interpolation of the samples
    [(xs, ys)] at [x], linearly extrapolating outside [xs].  Raises
    [Invalid_argument] unless [xs] has at least two points and [ys] its
    length. *)

type grid3 = { axes : axis * axis * axis; values3 : float array array array }
(** [values3.(i).(j).(k)] corresponds to [(xs.(i), ys.(j), zs.(k))]. *)

val trilinear : grid3 -> float -> float -> float -> float
