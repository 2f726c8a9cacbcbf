(** Standard-cell definitions.

    Each cell is a static CMOS gate: a PMOS pull-up and a complementary
    NMOS pull-down network, plus base width multipliers applied on top
    of the technology's minimum widths.  The usual logical-effort
    sizings are used (series stacks upsized to match the drive of the
    reference inverter). *)

type t = {
  name : string;
  inputs : string list;
  wn_mult : float;  (** multiplier on the technology NMOS template width *)
  wp_mult : float;  (** multiplier on the technology PMOS template width *)
  pull_down : Topology.t;  (** NMOS network, output-to-ground *)
  pull_up : Topology.t;    (** PMOS network, output-to-Vdd *)
}

val inv : t
(** The reference inverter — every other cell's drive is sized
    relative to it, and it anchors the equivalent-inverter reduction. *)

val nand2 : t
(** 2-input NAND: series NMOS stack (upsized 2x), parallel PMOS. *)

val nand3 : t

val nor2 : t
(** 2-input NOR: parallel NMOS, series PMOS stack (upsized 2x). *)

val aoi21 : t
(** out = not (A and B or C). *)

val all : t list
(** Every built-in cell, in a stable order — the default cell set of
    {!Library.characterize} and of the whole-library experiments. *)

val by_name : string -> t
(** Raises [Not_found] for unknown names. *)

val paper_set : t list
(** INV, NAND2, NOR2 — the set the paper reports in Table I. *)

val logic_value : t -> on:(string -> bool) -> bool option
(** Static output for a full input assignment: [Some true] when only the
    pull-up conducts, [Some false] when only the pull-down conducts,
    [None] for a non-complementary state (never happens for the
    built-in cells). *)
