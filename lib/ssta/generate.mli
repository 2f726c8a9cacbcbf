(** Deterministic random gate-level designs for large-graph SSTA
    benchmarking and testing.

    Designs are layered random DAGs over a configurable cell set
    (default INV/NAND2/NOR2): each gate draws its cell, its driver nets
    (uniformly over everything built so far, which yields wide, shallow
    graphs with a skewed fanout distribution) and an exponentially
    distributed wire load from a per-gate {!Slc_prob.Rng.split_ix}
    sub-stream.  The same [seed]/[gates] always reproduces the same
    netlist, bit for bit, on any machine. *)

type design = {
  dag : Sdag.t;  (** the mutable builder (already fully built) *)
  inputs : Sdag.net array;  (** primary inputs, in creation order *)
  outputs : Sdag.net array;
      (** zero-fanout gate outputs, each given the generator's output
          load; in net order *)
  compiled : Sdag.compiled;
      (** the design compiled once, after all loads were placed *)
}

val design :
  ?inputs:int ->
  ?cells:Slc_cell.Cells.t array ->
  ?mean_wire_cap:float ->
  ?out_load:float ->
  Slc_device.Tech.t ->
  vdd:float ->
  seed:int ->
  gates:int ->
  design
(** [design tech ~vdd ~seed ~gates] builds a random design with
    [gates] gates over [?inputs] (default 32) primary inputs.
    [?mean_wire_cap] (farads, default 0.5 fF) sets the exponential
    wire-load mean; [?out_load] (default 2 fF) is placed on every
    primary output.  Raises through {!Slc_obs.Slc_error} on
    non-positive sizes or a negative wire-cap mean. *)

val wire_cap_draw : Slc_prob.Rng.t -> mean:float -> float
[@@slc.test_only
  "the wire-load draw of design: the regression test pins that it is \
   always finite"]
(** One wire-load draw: exponentially distributed with the given mean,
    always finite — the uniform draw behind it is clamped into (0, 1]
    so a generator returning its upper endpoint can never produce
    [log 0.0 = -inf] (an infinite cap would poison every downstream
    arrival). *)

val both_edges : at:float -> slew:float -> Sdag.arrival
(** An arrival with identical rising and falling edges — the usual
    primary-input condition for whole-design passes. *)

val required : design -> float -> (Sdag.net * float) list
(** All primary outputs constrained to one required time — the
    [~outputs] argument for {!Sdag.slack_report_compiled}. *)
