(** Timing arcs: one switching input pin, one output transition
    direction, with the remaining inputs held at non-controlling
    values. *)

type direction = Rise | Fall
(** Direction of the {e output} transition. *)

type t = private {
  cell : Cells.t;
  pin : string;          (** the switching input *)
  out_dir : direction;
  side_values : (string * bool) list;
      (** static values of the other inputs *)
  name : string;  (** see {!name} *)
  id : int;  (** see {!id} *)
}
(** Built only by {!find} (and {!all_of_cell}), which fill in [name]
    and [id] once. *)

val direction_to_string : direction -> string
(** ["rise"] / ["fall"]. *)

val input_rises : t -> bool
(** All built-in cells are inverting, so the input rises exactly when
    the output falls. *)

val find : Cells.t -> pin:string -> out_dir:direction -> t
(** Finds a non-controlling assignment of the other inputs such that
    toggling [pin] toggles the output in the requested direction.
    When several assignments work, the one that turns on the most
    side devices is chosen (worst-case stack conduction, the common
    characterization convention).  Raises [Not_found] if the pin cannot
    control the output. *)

val all_of_cell : Cells.t -> t list
(** Every (pin, direction) arc of the cell. *)

val name : t -> string
(** e.g. "NAND2/A/fall".  Computed once by {!find}; O(1). *)

val id : t -> int
(** A small non-negative int naming the arc within this process: arcs
    with equal {!name}s have equal ids and arcs with different names
    different ones.  Ids depend on the order arcs are first found, so
    they key in-process caches only and are never persisted. *)

val input_on : t -> switching_high:bool -> string -> bool
(** Full input assignment given the current logical value of the
    switching pin. *)
