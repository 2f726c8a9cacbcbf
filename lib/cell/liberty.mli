(** Liberty (.lib) export and (subset) import.

    The industry exchange format for characterized libraries.  The
    writer emits an NLDM library at one supply corner (Liberty tables
    are 2-D in input slew x load; our tables carry a Vdd axis, so a
    slice is selected).  The reader parses the subset the writer emits
    — enough for round-tripping and for consuming our own libraries
    from other tools' test fixtures.

    Units follow common practice: time in ps, capacitance in fF. *)

val write : Format.formatter -> vdd:float -> Library.t -> unit
(** Emits the library at the table Vdd slice nearest to [vdd].  Each
    cell gets its input pins (with capacitances), an output pin [Y],
    and one [timing()] group per related input pin carrying
    [cell_rise]/[cell_fall] and [rise_transition]/[fall_transition]
    tables. *)

val to_string : vdd:float -> Library.t -> string
(** {!write} into a string. *)

(** {1 Reading} *)

type table = {
  index_1 : Slc_num.Interp.axis;  (** input slew axis, ps *)
  index_2 : Slc_num.Interp.axis;  (** load axis, fF *)
  values : float array array;  (** [slew][load], ps *)
}

type timing_group = {
  related_pin : string;
  cell_rise : table option;
  cell_fall : table option;
  rise_transition : table option;
  fall_transition : table option;
}

type power_group = {
  power_related_pin : string;
  rise_power : table option;  (** switching energy tables, fJ *)
  fall_power : table option;
}

type cell = {
  cell_name : string;
  pin_caps : (string * float) list;  (** input pin capacitances, fF *)
  timings : timing_group list;
  powers : power_group list;
}

type t = {
  library_name : string;
  nom_voltage : float;
  cells : cell list;
}

exception Parse_error of string

val parse : string -> t
(** Parses the writer's subset of Liberty; raises {!Parse_error} with a
    location hint otherwise, and for a table whose [index_1] or
    [index_2] is empty or not strictly increasing. *)

val lookup :
  t -> cell:string -> related_pin:string -> rising:bool ->
  sin:float -> cload:float -> (float * float) option
[@@slc.test_only
  "reads a written .lib back: the round trip pins the delay and \
   transition tables the writer emits"]
(** Bilinear table lookup in a parsed library: [(delay, transition)] in
    seconds for SI inputs; [None] if the arc is absent. *)

val lookup_energy :
  t -> cell:string -> related_pin:string -> rising:bool ->
  sin:float -> cload:float -> float option
[@@slc.test_only
  "reads a written .lib back: the round trip pins the internal_power \
   tables the writer emits"]
(** Switching energy in joules from the [internal_power] tables. *)
