(** A characterized standard-cell library: NLDM tables for every arc of
    every cell of a technology. *)

type entry = { arc : Arc.t; table : Nldm.t }

type t = {
  tech : Slc_device.Tech.t;
  entries : entry list;
  sim_runs : int;  (** total simulator runs spent building the library *)
}

val characterize :
  ?seed:Slc_device.Process.seed ->
  ?cells:Cells.t list ->
  Slc_device.Tech.t ->
  levels:int array ->
  t
(** Builds tables for every arc of the given cells (default
    {!Cells.all}). *)

val find : t -> cell:string -> pin:string -> out_dir:Arc.direction -> entry option
(** The entry for one arc, by cell name, switching pin and output
    direction; [None] if the library does not contain it. *)

val summary : Format.formatter -> t -> unit
(** Liberty-flavored human-readable dump (cells, arcs, table sizes and
    corner values). *)

(** {2 Serialization}

    A characterized library is the most expensive artifact the flow
    produces (one simulation per grid point per arc); the persistent
    store keeps it on disk so a second process pays zero simulations.
    Values round-trip bitwise via the embedded {!Nldm} hex-float
    blocks. *)

val to_string : t -> string
(** Versioned line-oriented text: a header naming the technology
    followed by one embedded {!Nldm} block per entry. *)

val of_string : ?tech:Slc_device.Tech.t -> string -> t
(** Rebuilds the library.  Arcs are reconstructed by name through
    {!Arc.find} (the same derivation {!characterize} used).  With
    [?tech] the stored technology name must match the supplied card
    (use this for temperature or Vt variants whose cards are not
    registered under {!Slc_device.Tech.by_name}); without it the name
    is resolved via [Tech.by_name].  Raises
    {!Slc_num.Line_reader.Malformed} on malformed input, an unsupported
    version, a tech mismatch, or text after the [end] line. *)
