(** Circuit netlists.

    Nodes are integer handles; node 0 is ground.  Voltage sources pin
    a node directly to a stimulus (every source in this project is
    ground-referenced, which lets the solver eliminate source branches
    instead of carrying MNA branch currents). *)

type node = int

val ground : node

type element =
  | Mosfet of { params : Slc_device.Mosfet.params; g : node; d : node; s : node }
  | Capacitor of { c : float; a : node; b : node }
  | Resistor of { r : float; a : node; b : node }

type t

val create : unit -> t

val fresh_node : t -> string -> node
(** Allocates a new named node. *)

val node_count : t -> int
(** Total number of nodes including ground. *)

val add_mosfet :
  t -> Slc_device.Mosfet.params -> g:node -> d:node -> s:node -> unit

val add_capacitor : t -> float -> a:node -> b:node -> unit
(** [c] must be >= 0; zero-valued capacitors are dropped. *)

val add_resistor : t -> float -> a:node -> b:node -> unit
(** [r] must be > 0. *)

val add_vsource : t -> Stimulus.t -> node -> unit
(** Pin a node to a stimulus.  A node can be pinned at most once. *)

val elements : t -> element list
(** In insertion order. *)

val sources : t -> (node * Stimulus.t) list

val pinned : t -> node -> bool

val device_count : t -> int
(** Number of MOSFETs added so far (used as the device instance index
    for local-mismatch streams). *)

val validate : t -> unit
(** Checks that every element references allocated nodes and that the
    circuit has at least one free node; raises [Invalid_argument]
    otherwise. *)
