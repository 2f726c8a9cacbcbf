(** Plain-text rendering of experiment results: aligned tables and
    ASCII series — the harness's stand-in for the paper's figures. *)

val table :
  Format.formatter -> header:string list -> string list list -> unit
(** Renders rows under a header with auto-sized columns. *)

val bar : width:int -> float -> float -> string
(** [bar ~width value max] renders a proportional ASCII bar. *)

val pct : float -> string
(** Formats a fraction as a percentage with 2 decimals. *)

val ps : float -> string
(** Formats seconds as picoseconds. *)
