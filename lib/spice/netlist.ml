type node = int

let ground = 0

type element =
  | Mosfet of { params : Slc_device.Mosfet.params; g : node; d : node; s : node }
  | Capacitor of { c : float; a : node; b : node }
  | Resistor of { r : float; a : node; b : node }

type t = {
  mutable names : string list; (* reversed: names of nodes 1.. *)
  mutable n_nodes : int;       (* including ground *)
  mutable elems : element list; (* reversed *)
  mutable srcs : (node * Stimulus.t) list;
  mutable n_devices : int;
}

let create () =
  { names = []; n_nodes = 1; elems = []; srcs = []; n_devices = 0 }

let fresh_node t name =
  let id = t.n_nodes in
  t.n_nodes <- t.n_nodes + 1;
  t.names <- name :: t.names;
  id

let node_count t = t.n_nodes

let check_node t n =
  if n < 0 || n >= t.n_nodes then
    Slc_obs.Slc_error.invalid_input ~site:"Netlist" "element references an unallocated node"

let add_mosfet t params ~g ~d ~s =
  check_node t g;
  check_node t d;
  check_node t s;
  t.elems <- Mosfet { params; g; d; s } :: t.elems;
  t.n_devices <- t.n_devices + 1

let add_capacitor t c ~a ~b =
  check_node t a;
  check_node t b;
  if c < 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Netlist.add_capacitor" "negative capacitance";
  if c > 0.0 && a <> b then t.elems <- Capacitor { c; a; b } :: t.elems

let add_resistor t r ~a ~b =
  check_node t a;
  check_node t b;
  if r <= 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Netlist.add_resistor" "resistance must be > 0";
  if a <> b then t.elems <- Resistor { r; a; b } :: t.elems

let add_vsource t stim n =
  check_node t n;
  if n = ground then Slc_obs.Slc_error.invalid_input ~site:"Netlist.add_vsource" "cannot drive ground";
  if List.mem_assoc n t.srcs then
    Slc_obs.Slc_error.invalid_input ~site:"Netlist.add_vsource" "node already pinned";
  t.srcs <- (n, stim) :: t.srcs

let elements t = List.rev t.elems

let sources t = List.rev t.srcs

let pinned t n = n = ground || List.mem_assoc n t.srcs

let device_count t = t.n_devices

let validate t =
  let free = ref 0 in
  for n = 1 to t.n_nodes - 1 do
    if not (List.mem_assoc n t.srcs) then incr free
  done;
  if !free = 0 then
    Slc_obs.Slc_error.invalid_input ~site:"Netlist.validate" "no free nodes (nothing to solve)";
  List.iter
    (fun e ->
      match e with
      | Mosfet { g; d; s; _ } ->
        check_node t g;
        check_node t d;
        check_node t s
      | Capacitor { a; b; _ } | Resistor { a; b; _ } ->
        check_node t a;
        check_node t b)
    t.elems
