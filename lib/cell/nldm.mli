(** NLDM-style look-up tables — the conventional characterization the
    paper benchmarks against.

    A table stores delay and output slew on a rectilinear
    [Sin x Cload x Vdd] grid and answers arbitrary points by trilinear
    interpolation (constant along axes that have a single level).  The
    cost of building a table is exactly its number of grid points, in
    simulator runs — the paper's [N_LUT]. *)

type t = {
  arc_name : string;
  sin_axis : Slc_num.Interp.axis;
      (** axes are validated once, where a table is built or parsed *)
  cload_axis : Slc_num.Interp.axis;
  vdd_axis : Slc_num.Interp.axis;
  td : float array array array;    (** indexed [sin][cload][vdd] *)
  sout : float array array array;
  energy : float array array array;  (** switching energy, J *)
}

val design_levels : budget:int -> box:Slc_prob.Sampling.box -> int array
(** Axis level counts [| n_sin; n_cload; n_vdd |] whose product is as
    close to [budget] as possible without exceeding it, preferring
    balanced [Sin]/[Cload] resolution over [Vdd] (the conventional NLDM
    shape).  Every count is at least 1. *)

val build :
  ?seed:Slc_device.Process.seed ->
  Slc_device.Tech.t ->
  Arc.t ->
  levels:int array ->
  t
(** Simulates every grid point. *)

val lookup_td : t -> Harness.point -> float
(** Trilinearly interpolated delay at an arbitrary ξ (linear
    extrapolation outside the grid, constant along singleton axes). *)

val lookup_sout : t -> Harness.point -> float
(** Interpolated output slew; same scheme as {!lookup_td}. *)

val lookup_td_sout : t -> Harness.point -> float * float
(** Bitwise [(lookup_td t p, lookup_sout t p)], locating [p] on the
    axes once for both grids. *)

(** {2 Serialization}

    Tables are the unit of paid-for characterization work, so the
    persistent store keeps them on disk.  The format is line-oriented
    text whose floats use the exact hexadecimal encoding
    ({!Slc_num.Hexfloat}): a reloaded table is bitwise identical to the
    one written — lookups through it return the same 64-bit values.
    Reading goes through {!Slc_num.Line_reader}, whose one exception,
    {!Slc_num.Line_reader.Malformed}, reports every malformation. *)

val to_string : t -> string
[@@slc.test_only
  "the standalone form of the block to_buffer embeds in libraries and \
   store artifacts; the tests pin its bitwise round trip"]
(** Versioned line-oriented text (header, axes, value grids). *)

val of_string : string -> t
[@@slc.test_only
  "parse_lines on a standalone block; the tests pin the rejection of \
   malformed blocks that libraries and store artifacts parse"]
(** Raises {!Slc_num.Line_reader.Malformed} on malformed input (an axis
    that is empty or not strictly increasing included), an unsupported
    format version, or text after the [end] line. *)

val to_buffer : Buffer.t -> t -> unit
(** Appends exactly what {!to_string} returns — used by containers
    (e.g. {!Library}) that embed table blocks in their own format. *)

val parse_lines : Slc_num.Line_reader.t -> t
(** Parses one table block from a cursor (the inverse of
    {!to_buffer}), leaving the cursor after its [end] line.  Raises
    {!Slc_num.Line_reader.Malformed}. *)
