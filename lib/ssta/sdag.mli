(** A static-timing DAG over standard cells.

    Nets carry separate rise and fall arrivals (time + slew).  Each
    gate input pin contributes candidate arrivals at the output through
    the corresponding timing arc (all built-in cells are inverting, so
    an input rise produces an output fall); the latest candidate wins
    per output edge — ordinary block-based STA, with the delay/slew
    numbers supplied by any {!Oracle.t}.

    Gates must be added after their driver nets (construction order is
    the topological order), which the builder enforces.  The builder is
    array-backed: net-name lookup is O(1) and per-net total capacitance
    is accumulated incrementally as fanout pins are connected, so no
    pass over the netlist is quadratic in its size.

    For repeated or large analyses, {!compile} snapshots the builder
    into an immutable {!compiled} graph: int-indexed pin arrays,
    pre-resolved timing-arc candidates and frozen per-output loads.  A
    pass times the gates in one loop, in construction order, on the
    caller's thread. *)

type t

type net

val create : Slc_device.Tech.t -> vdd:float -> t
(** An empty DAG; the technology supplies pin input capacitances (for
    loads) and [vdd] is the operating supply every arc is timed at. *)

val input : t -> string -> net
(** Declares a primary input net. *)

val gate :
  t -> Slc_cell.Cells.t -> pins:(string * net) list -> ?wire_cap:float ->
  string -> net
(** [gate dag cell ~pins name] instantiates [cell] with every input pin
    connected per [pins], listed in any order, and returns its output
    net.  Raises [Slc_error.Invalid_input] unless [pins] names each of
    the cell's inputs exactly once. *)

val set_load : t -> net -> float -> unit
(** Extra capacitive load on a net (primary-output load).  Loads on one
    net sum in call order, each onto the total before it (a gate's
    [?wire_cap] first). *)

val of_chain : Slc_cell.Chain.t -> vdd:float -> t * net * net
(** [of_chain chain ~vdd] is the DAG of a {!Slc_cell.Chain}, with its
    input net (named ["in"]) and its final output net.  Stage [i]
    (from 1) drives net ["s<i>"] from its switching pin; each side pin
    sits on its own primary input ["s<i>.<pin>"], which the caller gives
    no arrival, so only the chain input launches edges.  Stage wire caps
    and the chain's final load land on the stage outputs, so every
    stage sees the load the transistor-level chain simulates; timing
    the output of a one-edge input with {!analyze} gives the chain's
    total delay and output slew. *)

type edge_arrival = { at : float; slew : float }

type arrival = { rise : edge_arrival option; fall : edge_arrival option }

val analyze :
  ?cache:Oracle.cache ->
  t ->
  Oracle.t ->
  input_arrivals:(string -> arrival) ->
  net ->
  arrival
(** Arrival at the given net once every primary input is given its
    arrival/slew per edge.  Nets driven only by non-arriving edges
    propagate [None] (e.g. a one-sided input transition yields
    alternating one-sided arrivals down an inverter chain).

    Every timing arc is one direct oracle query.  [?cache] is
    accepted and ignored: queries of a pass barely repeat, and a direct
    {!Oracle.of_library} query (30–60 ns) or {!Oracle.bayes_bank}
    query at one supply (85–130 ns) costs less than a warm hit of an
    exact {!Oracle.cache} (124–245 ns).  To keep the answers of a dear
    oracle (e.g. {!Oracle.of_simulator}, one simulation per query)
    across passes, pass [Oracle.cached c oracle] as the oracle: a
    repeated pass on a kept cache then makes no oracle queries, and
    results are bitwise identical either way.

    Compiles the graph internally; hot callers should {!compile} once
    and use {!arrivals_compiled}. *)

type slack_row = {
  net_label : string;
  arrival_time : float;   (** worst (latest) arrival over both edges *)
  required_time : float;  (** earliest requirement propagated backward *)
  slack : float;          (** required - arrival; negative = violation *)
}

val slack_report :
  ?cache:Oracle.cache ->
  t ->
  Oracle.t ->
  input_arrivals:(string -> arrival) ->
  outputs:(net * float) list ->
  slack_row list
(** Full forward arrival pass plus a backward required-time pass from
    the given (output net, required time) constraints.  Returns one row
    per net that has a finite arrival, sorted most-critical first.
    Nets with no requirement reachable from them get infinite slack.
    Oracle queries are direct and [?cache] is ignored, as in
    {!analyze}. *)

val net_name : t -> net -> string
(** The label the net was created under.  O(1). *)

val net_cap : t -> net -> float
(** Total capacitance on a net: explicit loads ({!set_load} /
    [?wire_cap]) plus the input capacitance of every fanout pin
    connected so far.  O(1): fanout caps are accumulated as gates are
    added, in connection order, so the total is bitwise identical to a
    fresh summation over the netlist.  Raises {!Slc_obs.Slc_error.Invalid_input}
    for a net this graph did not create, like {!net_name}. *)

val at_edge : arrival -> rises:bool -> edge_arrival option
(** Selects the rising or falling component of an arrival. *)

val input_edge : at:float -> slew:float -> rises:bool -> arrival
(** Convenience constructor for a single-edge input arrival. *)

(** {2 Compiled graphs}

    An immutable snapshot of the DAG, built once and reused across
    passes.  Compilation resolves each distinct (cell, pin, edge)
    timing arc once and freezes every output net's total load. *)

type compiled

val compile : t -> compiled
(** Snapshot the builder.  Later mutations of [t] (more gates, more
    loads) are not reflected; compile again.  O(nets + pins). *)

val compiled_nets : compiled -> int
[@@slc.test_only
  "the net count of a compiled graph: the tests pin one slack row per \
   net and identical graphs from one generator seed"]
(** Number of nets (primary inputs + gate outputs). *)

val compiled_gates : compiled -> int

val level_widths : compiled -> int array
(** Gates per ASAP level, in level order: the depth and width profile
    of the design, computed on each call from the pin arrays. *)

val arrivals_compiled :
  ?cache:Oracle.cache ->
  compiled ->
  Oracle.t ->
  input_arrivals:(string -> arrival) ->
  (net -> arrival)
(** {!analyze} over a compiled graph, for every net at once: one forward
    pass runs when the input arrivals are applied, and the returned
    function reads any net's arrival from it. *)

val slack_report_compiled :
  ?cache:Oracle.cache ->
  compiled ->
  Oracle.t ->
  input_arrivals:(string -> arrival) ->
  outputs:(net * float) list ->
  slack_row list
(** {!slack_report} over a compiled graph, skipping recompilation. *)
