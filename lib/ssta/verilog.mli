(** Structural-Verilog (subset) reader for the timing DAG.

    Supported: one module with scalar ports, [input]/[output]/[wire]
    declarations, and named-port instantiations of the built-in cells
    whose output pin is [Y]:

    {v
    module top (a, b, out);
      input a, b;
      output out;
      wire n1;
      NAND2 u1 (.A(a), .B(b), .Y(n1));
      INV   u2 (.A(n1), .Y(out));
    endmodule
    v}

    Instances may appear in any order; they are sorted topologically
    when the DAG is built.  [//] line comments and arbitrary whitespace
    are accepted. *)

type instance = {
  cell_name : string;
  instance_name : string;
  connections : (string * string) list;  (** pin -> net name, incl. Y *)
}

type t = {
  module_name : string;
  inputs : string list;
  outputs : string list;
  wires : string list;
  instances : instance list;
}

exception Parse_error of string

val parse : string -> t
(** Raises {!Parse_error} on syntax errors, undeclared nets, or ports
    declared more than once. *)

val to_sdag :
  t ->
  Slc_device.Tech.t ->
  vdd:float ->
  Sdag.t * (string * Sdag.net) list * (string * Sdag.net) list
(** Builds the timing DAG; returns it with the (name, net) pairs of the
    primary inputs and outputs.  Raises {!Parse_error} on unknown cell
    types, missing pins, multiply-driven nets, undriven internal nets,
    or combinational loops.  Instances may appear in any source order;
    the cost is linear in the netlist size. *)

val sta :
  Slc_device.Tech.t ->
  oracle:(unit -> Oracle.t) ->
  clock:float ->
  string ->
  (string * Sdag.slack_row list, string) result
(** [sta tech ~oracle ~clock path] is the slack report of [slc sta] and
    of the served [sta] request: it reads the netlist file at [path],
    builds its DAG at [tech]'s nominal supply, launches a rising edge
    with a 5 ps slew at t = 0 on every primary input, requires every
    primary output at [clock], and returns the module name with the
    rows of the constrained nets (finite required time), most critical
    first.  [oracle] is called once, after the netlist is built, so a
    bad netlist costs no characterization.  [Error] carries one line
    naming the failure: ["netlist: ..."] (unreadable file),
    ["netlist parse error: ..."] or ["netlist error: ..."] (the
    {!Parse_error}s of {!parse} and {!to_sdag}). *)
