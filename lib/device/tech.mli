(** Technology cards: six synthetic nodes standing in for the paper's
    production design kits (14 nm FinFET … 45 nm, bulk and SOI).  Each
    card fixes the device templates, nominal supply, variability
    coefficients and the library input-space box over which cells are
    characterized. *)

type flavor = Bulk | Soi | Finfet

type t = {
  name : string;
  node_nm : int;
  flavor : flavor;
  vdd_nom : float;  (** nominal supply, V *)
  nmos : Mosfet.params;  (** minimum-width NMOS template *)
  pmos : Mosfet.params;  (** minimum-width PMOS template *)
  (* Variability --------------------------------------------------- *)
  avt : float;  (** Pelgrom mismatch coefficient, V*m: sigma_vt_local =
                    avt / sqrt (W * L) *)
  sigma_vt_global : float;  (** inter-die threshold shift sigma, V *)
  sigma_kp_rel : float;     (** relative drive-factor sigma *)
  sigma_l_rel : float;      (** relative channel-length sigma *)
  sigma_cpar_rel : float;   (** relative parasitic-capacitance sigma *)
  (* Library input space ------------------------------------------- *)
  sin_range : float * float;    (** input slew range, s *)
  cload_range : float * float;  (** load capacitance range, F *)
  vdd_range : float * float;    (** supply range, V *)
}

val n14 : t
(** FinFET-like 14 nm node — the target of the paper's first example. *)

val n20 : t

val n28 : t
(** Bulk 28 nm node — the target of the paper's statistical example. *)

val n40 : t

val n45 : t

val all : t list
(** All six nodes, newest first. *)

val by_name : string -> t
(** Looks a node up by [name]; raises [Not_found]. *)

val at_temperature : t -> celsius:float -> t
(** The node's devices re-evaluated at a junction temperature (the
    cards are defined at 25 C).  Characterizing [at_temperature t 125.0]
    gives the hot corner of the same node. *)

val vt_variant : t -> shift:float -> suffix:string -> t
(** A threshold-voltage flavor of a node (multi-Vt library option):
    shifts both device thresholds by [shift] volts (negative = LVT,
    faster and leakier) and renames the card with [suffix].  Used by
    the cross-flavor transfer extension. *)

val historical_for : t -> t list
(** All nodes except the given target — the default "past
    characterizations" set used to learn priors. *)

val input_box : t -> Slc_prob.Sampling.box
(** The 3-D box [(sin, cload, vdd)] of the node's library input space. *)
