(** Sequential-cell characterization: a positive-edge-triggered D
    flip-flop (the classic 6-NAND structure, built from this library's
    NAND2/NAND3 cells at transistor level) and setup-time extraction by
    bisection over the data-to-clock offset.

    Combinational arcs are the paper's subject; real libraries also
    carry setup/hold tables, and this module shows the same simulation
    substrate characterizing them.  The flip-flop netlist has feedback
    (two cross-coupled NAND latches), which also exercises the solver
    beyond DAGs. *)

type capture_result = {
  captured : bool;   (** Q equals the new data value after the edge *)
  q_final : float;   (** Q voltage at the end of the window, V *)
  clk_to_q : float option;
      (** 50%-50% clock-edge-to-Q delay when a Q transition happened *)
}

val simulate_capture_gen :
  ?seed:Slc_device.Process.seed ->
  ?d_revert:float ->
  Slc_device.Tech.t ->
  vdd:float ->
  data_rises:bool ->
  d_to_clk:float ->
  capture_result
[@@slc.test_only
  "one capture attempt, the probe setup_time and hold_time search \
   with; the tests pin capture and miss on either side of the times \
   they find"]
(** One clocked capture attempt: D transitions to its new value
    [d_to_clk] seconds before the active clock edge (negative = data
    changes after the edge), with 5 ps edges on both signals.  The
    output latch is seeded to the {e old} data value, so a successful
    capture flips Q.  When [d_revert] is given, D returns to its old
    value that many seconds after the clock edge (negative = before the
    edge). *)

val hold_time :
  ?seed:Slc_device.Process.seed ->
  ?resolution:float ->
  Slc_device.Tech.t ->
  vdd:float ->
  data_rises:bool ->
  float
(** Minimum time the data must remain stable {e after} the clock edge:
    D is presented early (safe setup), then reverts to its old value
    [t] seconds after the edge; the hold time is the smallest [t] for
    which the new value is still captured, found by bisection (often
    negative for edge-triggered structures: the data may be released
    slightly before the edge).  Raises [Failure] when the bracket is
    not monotone. *)

val setup_time :
  ?seed:Slc_device.Process.seed ->
  ?resolution:float ->
  Slc_device.Tech.t ->
  vdd:float ->
  data_rises:bool ->
  float
(** Minimum data-to-clock offset that still captures, found by
    bisection to [resolution] (default 0.05 ps) between a
    comfortably-early and a comfortably-late data edge.  Raises
    [Failure] if the bracket does not behave monotonically (capture
    must succeed early and fail late). *)
