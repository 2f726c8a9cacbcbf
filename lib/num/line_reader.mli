(** The one reader for the line-oriented artifact formats: priors,
    NLDM tables, libraries, and the store's predictors, populations and
    checkpoints.

    A cursor walks the trimmed, non-empty lines of a text; a line is
    split on spaces into fields.  Every malformation — a missing or
    unexpected line, a field that is not a number, a negative count, an
    axis that is not strictly increasing, text after the last line a
    parser consumes — raises {!Malformed}, and nothing else. *)

exception Malformed of string

val fail : string -> 'a
(** Raises {!Malformed}. *)

val scope : string -> (unit -> 'a) -> 'a
(** [scope name f] runs [f], prefixing ["name: "] to the message of a
    {!Malformed} that escapes it. *)

type t

val of_string : string -> t

val next : t -> string
(** The next line; {!Malformed} at end of input. *)

val peek : t -> string option

val finish : t -> unit
(** Rejects any line left after the last one a parser consumed. *)

val fields : string -> string list

val expect : t -> string -> string list
(** [expect c key] reads the next line, which must start with the
    field [key], and returns its remaining fields. *)

val int : string -> int
(** A non-negative decimal integer (every integer field is a count, a
    cost, a version or an index). *)

val float : string -> float
(** Any syntax {!Hexfloat.of_string} accepts. *)

val floats : string list -> float array

val quoted : key:string -> string -> string
(** [quoted ~key line]: the OCaml string literal ([%S]) that is the
    whole of [line] after [key] and whitespace. *)

val axis : string -> string list -> Interp.axis
(** [axis name (count :: values)]: a grid axis of [count >= 1] strictly
    increasing values (NLDM axes and the prior's β grid), validated
    here once for every later {!Interp.locate}. *)
