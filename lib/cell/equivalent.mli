(** Equivalent-inverter reduction (paper Fig. 1b).

    For a timing arc, the conducting network (pull-down for a falling
    output, pull-up for a rising output) is reduced to a single
    equivalent device whose width combines the stack conductances.
    [Ieff] of that device (paper Eq. 4) is the current normalizer of
    the compact timing model. *)

type t = {
  device : Slc_device.Mosfet.params;  (** the equivalent transistor *)
  width_mult : float;  (** total width multiplier vs the tech template *)
}

val of_arc :
  ?stack_factor:float -> Slc_device.Tech.t -> Arc.t -> t
(** [stack_factor] (default 0.95) derates series stacks slightly to
    account for the body effect of inner devices; applied once per
    series level below the top. *)

val of_arc_cached : Slc_device.Tech.t -> Arc.t -> t
(** [of_arc] with the default stack factor, memoized per (tech, arc).
    Domain-safe; use in hot paths that re-derive the same equivalent
    inverter on every call. *)

val ieff : t -> vdd:float -> float
(** Effective switching current of the equivalent device (paper
    Eq. 4): [(Id(Vdd, Vdd/2) + Id(Vdd/2, Vdd)) / 2]. *)

val device_with_seed :
  Slc_device.Tech.t -> Slc_device.Process.seed -> Arc.t -> Slc_device.Mosfet.params
(** The equivalent device with the seed's global process shifts
    applied (local mismatch is left out). *)

val ieff_with_seed :
  Slc_device.Tech.t -> Slc_device.Process.seed -> Arc.t -> vdd:float -> float
(** [Mosfet.ieff (device_with_seed tech seed arc) ~vdd]: [Ieff] with
    the seed's global process shifts — how the statistical flow ties
    process variation into the timing model. *)

val input_cap : Slc_device.Tech.t -> Cells.t -> pin:string -> float
(** Gate capacitance presented by one input pin: the summed gate caps
    of every device (NMOS and PMOS) controlled by that pin.  This is
    the load a driving stage sees, used by chain simulation windows
    and by SSTA load computation. *)

val parasitic_cap : Slc_device.Tech.t -> Arc.t -> float
(** Rough physical estimate of the output-node parasitic capacitance of
    the cell (junction caps of devices touching the output) — used only
    to scale simulation windows, never as a model parameter. *)
