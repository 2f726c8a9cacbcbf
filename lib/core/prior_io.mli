(** Persistence for learned priors.

    Prior learning costs thousands of simulator runs over the
    historical nodes; a production flow learns once per node family
    and reuses the result.  The format is a versioned, line-oriented
    text file (stable across platforms, diff-friendly), read through
    {!Slc_num.Line_reader}. *)

val to_string : Prior.pair -> string

val parse : string -> Prior.pair
(** Raises {!Slc_num.Line_reader.Malformed} on malformed input,
    including a count below zero, a covariance that is not positive
    definite, a β axis that is empty or not strictly increasing, and any
    text after the [end] line.  Round-trips everything
    the MAP flow needs: prior mean/covariance, the β(ξ) grid, the
    provenance list and the learning cost. *)

val save : string -> Prior.pair -> unit
(** Write to a file path. *)

val load : string -> Prior.pair
(** Read from a file path; raises [Sys_error] or
    {!Slc_num.Line_reader.Malformed}. *)
