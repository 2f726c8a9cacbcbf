(** Wire protocol of the characterization server: newline-delimited
    text, one request per line, one response line per request.

    Requests (tokens separated by spaces):

    {v
    delay <tech> <cell> <pin> rise|fall <k> <sin> <cload> <vdd>
    slew  <tech> <cell> <pin> rise|fall <k> <sin> <cload> <vdd>
    pdf   <tech> <cell> <pin> rise|fall <method> <k> <seeds> <rng> <grid>
          <sin> <cload> <vdd>
    sta   <tech> <k> <clock> <netlist-path>
    stats
    ping
    quit
    shutdown
    v}

    Responses:

    {v
    ok delay <td> <sout>
    ok slew <sout>
    ok pdf <n> <x1> <p1> ... <xn> <pn>
    ok sta <n> <net> <arrival> <required> <slack> ...
    ok stats <key>=<value> ...
    ok pong
    ok bye
    err parse|domain|internal <message>
    v}

    Every float in a response is rendered with {!Slc_num.Hexfloat}, so
    responses are {e bitwise} identical to the library values they
    carry — the contract behind "a served query equals the one-shot
    CLI".  Request floats accept both hexadecimal and decimal forms.
    [sta] netlist paths and net names must not contain spaces (the
    Verilog subset only produces such identifiers). *)

(** A delay/slew query: one timing arc at one input condition, answered
    by the [k]-simulation Bayesian bank. *)
type query = {
  q_tech : string;
  q_cell : string;
  q_pin : string;
  q_dir : Slc_cell.Arc.direction;  (** output transition direction *)
  q_k : int;
  q_point : Slc_cell.Harness.point;
}

(** A statistical delay-pdf query (the paper's Fig 9 curve as a
    service): [p_seeds] Monte-Carlo process seeds drawn with generator
    seed [p_rng], per-seed extraction method [p_method]
    (["bayes"]/["lse"]/["lut"]) with budget [p_k], density evaluated on
    a [p_grid]-point KDE grid at [p_point]. *)
type pdf_query = {
  p_tech : string;
  p_cell : string;
  p_pin : string;
  p_dir : Slc_cell.Arc.direction;
  p_method : string;
  p_k : int;
  p_seeds : int;
  p_rng : int;
  p_grid : int;
  p_point : Slc_cell.Harness.point;
}

(** A slack-report query over a structural-Verilog netlist file, timed
    with the [k]-simulation Bayesian bank against a required time of
    [s_clock] seconds at every primary output. *)
type sta_query = {
  s_tech : string;
  s_k : int;
  s_clock : float;
  s_netlist : string;  (** path to the netlist, resolved server-side *)
}

type request =
  | Delay of query
  | Slew of query
  | Pdf of pdf_query
  | Sta of sta_query
  | Stats
  | Ping
  | Quit      (** close this connection after the reply *)
  | Shutdown  (** stop the whole server after the reply *)

type error_kind =
  | Parse     (** the request line did not parse *)
  | Domain    (** well-formed but unanswerable: unknown tech/cell/arc,
                  netlist errors, simulation failures *)
  | Internal  (** unexpected server-side failure *)

type response =
  | Ok_delay of float * float  (** (delay, output slew) *)
  | Ok_slew of float
  | Ok_pdf of (float * float) array  (** (value, density) pairs *)
  | Ok_sta of (string * float * float * float) list
      (** (net, arrival, required, slack), most critical first *)
  | Ok_stats of (string * string) list
  | Ok_pong
  | Ok_bye
  | Err of error_kind * string

val parse_request : string -> (request, string) result
(** Parses one request line (leading/trailing whitespace ignored). *)

val format_request : request -> string
[@@slc.test_only
  "the inverse of parse_request: the tests pin the exact round trip of \
   the wire grammar"]
(** Inverse of {!parse_request}; floats are rendered in hexadecimal so
    the round-trip is exact. *)

val format_response : response -> string
(** One line, no trailing newline.  Error messages have embedded
    newlines flattened to spaces so the framing survives. *)

val parse_response : string -> (response, string) result
(** Parses one response line — the client half of the protocol. *)
