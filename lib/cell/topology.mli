(** Series–parallel transistor networks.

    A combinational CMOS cell is a pull-up network of PMOS devices
    between the output and Vdd and a complementary pull-down network of
    NMOS devices between the output and ground.  Both are series–
    parallel compositions of devices, each gated by a named input pin. *)

type t =
  | Dev of { pin : string; width_mult : float }
      (** one transistor; width = template width x [width_mult] *)
  | Series of t list
  | Parallel of t list

val conducts : t -> on:(string -> bool) -> bool
(** Whether the network conducts when [on pin] says a device whose gate
    is at [pin] is turned on (series = AND, parallel = OR). *)

val equivalent_width_mult : t -> on:(string -> bool) -> float
(** Conductance-style reduction of the conducting sub-network:
    series combine as [1 / sum (1/w)], parallel branches add, devices
    that are off contribute nothing.  Returns 0 when the network is
    off.  This is the paper's "equivalent inverter" reduction
    (Fig. 1b). *)

val validate : t -> unit
(** Rejects empty [Series]/[Parallel] groups and non-positive width
    multipliers. *)
