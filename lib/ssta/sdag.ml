module Arc = Slc_cell.Arc
module Cells = Slc_cell.Cells
module Chain = Slc_cell.Chain
module Equivalent = Slc_cell.Equivalent
module Harness = Slc_cell.Harness
module Tech = Slc_device.Tech
module Parallel = Slc_num.Parallel

type net = int

type gate_inst = {
  cell : Cells.t;
  pins : (string * net) list;
  out : net;
}

(* Builder: growable arrays instead of reversed lists, so net-name
   lookup is O(1) and nothing is re-materialized per query.  Net
   capacitance is accumulated incrementally as gates are added — each
   new fanout pin adds its gate cap to its driver net, in exactly the
   construction-order summation the historical per-query rescan
   performed, so totals are bitwise identical. *)
type t = {
  tech : Tech.t;
  vdd : float;
  mutable names : string array; (* per net; n_nets entries live *)
  mutable origins : int array; (* per net: -1 = input, else gate index *)
  mutable caps : float array; (* per net: summed fanout pin gate caps *)
  mutable n_nets : int;
  mutable gates : gate_inst array; (* n_gates entries live *)
  mutable n_gates : int;
  loads : (net, float) Hashtbl.t;
}

let dummy_gate = { cell = Cells.inv; pins = []; out = -1 }

let create tech ~vdd =
  if vdd <= 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Sdag.create" "vdd must be > 0";
  {
    tech;
    vdd;
    names = Array.make 16 "";
    origins = Array.make 16 (-1);
    caps = Array.make 16 0.0;
    n_nets = 0;
    gates = Array.make 16 dummy_gate;
    n_gates = 0;
    loads = Hashtbl.create 8;
  }

let grow_net t =
  if t.n_nets = Array.length t.names then begin
    let cap = 2 * Array.length t.names in
    let names = Array.make cap "" in
    Array.blit t.names 0 names 0 t.n_nets;
    t.names <- names;
    let origins = Array.make cap (-1) in
    Array.blit t.origins 0 origins 0 t.n_nets;
    t.origins <- origins;
    let caps = Array.make cap 0.0 in
    Array.blit t.caps 0 caps 0 t.n_nets;
    t.caps <- caps
  end

let fresh_net t name origin =
  grow_net t;
  let id = t.n_nets in
  t.names.(id) <- name;
  t.origins.(id) <- origin;
  t.caps.(id) <- 0.0;
  t.n_nets <- t.n_nets + 1;
  id

let input t name = fresh_net t name (-1)

let check_net t n =
  if n < 0 || n >= t.n_nets then Slc_obs.Slc_error.invalid_input ~site:"Sdag" "unknown net"

let gate t cell ~pins ?(wire_cap = 0.0) name =
  let expected = List.sort compare cell.Cells.inputs in
  let given = List.sort compare (List.map fst pins) in
  if expected <> given then
    Slc_obs.Slc_error.invalid_input ~site:"Sdag.gate"
      (Printf.sprintf "%s needs pins {%s}, got {%s}" cell.Cells.name
         (String.concat "," expected)
         (String.concat "," given));
  List.iter (fun (_, n) -> check_net t n) pins;
  let idx = t.n_gates in
  let out = fresh_net t name idx in
  if t.n_gates = Array.length t.gates then begin
    let gates = Array.make (2 * Array.length t.gates) dummy_gate in
    Array.blit t.gates 0 gates 0 t.n_gates;
    t.gates <- gates
  end;
  t.gates.(idx) <- { cell; pins; out };
  t.n_gates <- t.n_gates + 1;
  (* Accumulate fanout pin caps onto the driver nets, in pin-list order
     — the same order (and therefore the same floating-point sum) as
     the historical whole-graph rescan. *)
  List.iter
    (fun (pin, n) ->
      t.caps.(n) <- t.caps.(n) +. Equivalent.input_cap_cached t.tech cell ~pin)
    pins;
  if wire_cap > 0.0 then Hashtbl.replace t.loads out wire_cap;
  out

let set_load t net load =
  check_net t net;
  if load < 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Sdag.set_load" "negative load";
  Hashtbl.replace t.loads net
    (load +. Option.value ~default:0.0 (Hashtbl.find_opt t.loads net))

(* Stage i's output net is "s<i>"; each of its side pins gets its own
   primary input "s<i>.<pin>", which callers leave without arrival. *)
let of_chain (chain : Chain.t) ~vdd =
  let t = create chain.Chain.tech ~vdd in
  let chain_in = input t "in" in
  let _, chain_out =
    List.fold_left
      (fun (i, drive) (s : Chain.stage) ->
        let name = Printf.sprintf "s%d" i in
        let pins =
          List.map
            (fun pin ->
              if String.equal pin s.Chain.pin then (pin, drive)
              else (pin, input t (name ^ "." ^ pin)))
            s.Chain.cell.Cells.inputs
        in
        (i + 1, gate t s.Chain.cell ~pins ~wire_cap:s.Chain.wire_cap name))
      (1, chain_in) chain.Chain.stages
  in
  set_load t chain_out chain.Chain.final_load;
  (t, chain_in, chain_out)

let net_name t n =
  check_net t n;
  t.names.(n)

(* Total capacitance on a net: explicit loads plus the accumulated gate
   caps of all fanout pins. *)
let net_cap t net =
  let explicit = Option.value ~default:0.0 (Hashtbl.find_opt t.loads net) in
  explicit +. t.caps.(net)

type edge_arrival = { at : float; slew : float }

type arrival = { rise : edge_arrival option; fall : edge_arrival option }

let none = { rise = None; fall = None }

let at_edge a ~rises = if rises then a.rise else a.fall

let input_edge ~at ~slew ~rises =
  let e = Some { at; slew } in
  if rises then { rise = e; fall = None } else { none with fall = e }

(* ------------------------------------------------------------------ *)
(* Compiled graph: an immutable, int-indexed snapshot of the DAG built
   once per analysis batch.  Pins are flat arrays sliced per gate (CSR:
   gate [gi]'s pins are [k_pin_off.(gi) .. k_pin_off.(gi + 1) - 1]),
   timing-arc candidates are resolved up front (one [Arc.find] per
   distinct (cell, pin, edge) instead of one per gate evaluation), net
   capacitance is frozen per gate output, and gates are grouped into
   ASAP levels: every gate in a level depends only on nets produced by
   strictly earlier levels, so a level's gates can be evaluated in
   parallel. *)

type compiled = {
  k_vdd : float;
  k_names : string array;
  k_origins : int array; (* -1 = primary input, else gate index *)
  k_out : net array; (* per gate: output net *)
  k_load : float array; (* per gate: total capacitance on its output *)
  k_pin_off : int array; (* per gate, plus one: first pin of its slice *)
  k_pin_net : net array; (* per pin: driver net *)
  k_rise : Arc.t option array; (* per pin: arc producing a rising output *)
  k_fall : Arc.t option array; (* per pin: arc producing a falling output *)
  k_levels : int array array; (* gate indices grouped by ASAP level *)
}

let compile t =
  let n_nets = t.n_nets and n_gates = t.n_gates in
  let names = Array.sub t.names 0 n_nets in
  let origins = Array.sub t.origins 0 n_nets in
  (* Arc resolution memo: a netlist instantiates few distinct cells, so
     resolve each (cell, pin, direction) once. *)
  let arcs : (string * string * Arc.direction, Arc.t option) Hashtbl.t =
    Hashtbl.create 16
  in
  let resolve (cell : Cells.t) pin out_dir =
    let key = (cell.Cells.name, pin, out_dir) in
    match Hashtbl.find_opt arcs key with
    | Some r -> r
    | None ->
      let r =
        match Arc.find cell ~pin ~out_dir with
        | exception Not_found -> None
        | arc -> Some arc
      in
      Hashtbl.add arcs key r;
      r
  in
  let pin_off = Array.make (n_gates + 1) 0 in
  for gi = 0 to n_gates - 1 do
    pin_off.(gi + 1) <- pin_off.(gi) + List.length t.gates.(gi).pins
  done;
  let n_pins = pin_off.(n_gates) in
  let pin_net = Array.make n_pins 0 in
  let rise = Array.make n_pins None and fall = Array.make n_pins None in
  (* Rise arcs of a gate before its fall arcs: the order in which arcs
     are first resolved is the order their ids are interned. *)
  for gi = 0 to n_gates - 1 do
    let g = t.gates.(gi) and p0 = pin_off.(gi) in
    List.iteri
      (fun i (pin, n) ->
        pin_net.(p0 + i) <- n;
        rise.(p0 + i) <- resolve g.cell pin Arc.Rise)
      g.pins;
    List.iteri (fun i (pin, _) -> fall.(p0 + i) <- resolve g.cell pin Arc.Fall) g.pins
  done;
  let out = Array.init n_gates (fun gi -> t.gates.(gi).out) in
  let load = Array.map (net_cap t) out in
  (* ASAP levelization: a gate's level is 1 + the deepest level among
     its driver nets (primary inputs sit at level 0).  Construction
     order is topological, so one forward sweep suffices. *)
  let net_level = Array.make n_nets 0 in
  let gate_level = Array.make n_gates 0 in
  let max_level = ref 0 in
  for gi = 0 to n_gates - 1 do
    let deepest = ref 0 in
    for p = pin_off.(gi) to pin_off.(gi + 1) - 1 do
      let n = pin_net.(p) in
      if net_level.(n) > !deepest then deepest := net_level.(n)
    done;
    let lvl = !deepest + 1 in
    gate_level.(gi) <- lvl;
    net_level.(out.(gi)) <- lvl;
    if lvl > !max_level then max_level := lvl
  done;
  let widths = Array.make (!max_level + 1) 0 in
  Array.iter (fun lvl -> widths.(lvl) <- widths.(lvl) + 1) gate_level;
  let levels = Array.init (!max_level + 1) (fun lvl -> Array.make widths.(lvl) 0) in
  let filled = Array.make (!max_level + 1) 0 in
  for gi = 0 to n_gates - 1 do
    let lvl = gate_level.(gi) in
    levels.(lvl).(filled.(lvl)) <- gi;
    filled.(lvl) <- filled.(lvl) + 1
  done;
  (* Level 0 holds no gates; drop it so traversal touches gates only. *)
  let levels =
    if Array.length levels > 0 then Array.sub levels 1 (Array.length levels - 1)
    else levels
  in
  { k_vdd = t.vdd; k_names = names; k_origins = origins; k_out = out;
    k_load = load; k_pin_off = pin_off; k_pin_net = pin_net; k_rise = rise;
    k_fall = fall; k_levels = levels }

let compiled_nets k = Array.length k.k_names

let compiled_gates k = Array.length k.k_out

let level_widths k = Array.map Array.length k.k_levels

let check_compiled_net k n =
  if n < 0 || n >= Array.length k.k_names then
    Slc_obs.Slc_error.invalid_input ~site:"Sdag" "unknown net"

(* The state of one forward pass, in flat arrays.  Per net: rise and
   fall arrival time and slew, and a presence byte (bit 0 rise, bit 1
   fall; a slot whose bit is clear holds no arrival).  Per gate: the
   candidates it used — those whose driver edge arrived and whose arc
   exists, the ones the backward required-time pass walks — in its CSR
   slice of [driver]/[delay], two slots per pin starting at
   [2 * k_pin_off.(gi)], [used.(gi)] of them filled. *)
type pass = {
  rise_at : float array;
  rise_slew : float array;
  fall_at : float array;
  fall_slew : float array;
  present : Bytes.t;
  driver : net array;
  delay : float array;
  used : int array;
}

let rise_bit = 1

let fall_bit = 2

let[@slc.hot] has st n bit = Char.code (Bytes.get st.present n) land bit <> 0

let[@slc.hot] mark st n bit =
  Bytes.set st.present n
    (Char.unsafe_chr (Char.code (Bytes.get st.present n) lor bit))

(* The one allocating step of a gate evaluation: the oracle takes a
   point record and answers a boxed pair.  The slew and load are read
   from their arrays here, so that no float is boxed to pass them. *)
let[@slc.alloc_ok "Oracle.query takes a Harness.point and returns a boxed pair"] query
    (oracle : Oracle.t) arc (slews : float array) driver k gi =
  oracle.Oracle.query arc
    { Harness.sin = slews.(driver); cload = k.k_load.(gi); vdd = k.k_vdd }

(* One output edge of gate [gi]: every pin whose driver has the [src]
   edge and whose arc in [arcs] exists is a candidate, and the latest
   wins.  A candidate replaces the best so far iff
   [not (best_at >= at)], so a NaN arrival replaces any best and is
   replaced by the next candidate. *)
let[@slc.hot] eval_edge k oracle st gi arcs ~src_at ~src_slew ~src_bit ~dst_at
    ~dst_slew ~dst_bit =
  let out = k.k_out.(gi) in
  let slot = 2 * k.k_pin_off.(gi) in
  for p = k.k_pin_off.(gi) to k.k_pin_off.(gi + 1) - 1 do
    let driver = k.k_pin_net.(p) in
    if has st driver src_bit then
      match arcs.(p) with
      | None -> ()
      | Some arc ->
        let d, s = query oracle arc src_slew driver k gi in
        let u = st.used.(gi) in
        st.driver.(slot + u) <- driver;
        st.delay.(slot + u) <- d;
        st.used.(gi) <- u + 1;
        let at = src_at.(driver) +. d in
        if not (has st out dst_bit && dst_at.(out) >= at) then begin
          dst_at.(out) <- at;
          dst_slew.(out) <- s;
          mark st out dst_bit
        end
  done

(* An input fall launches an output rise and vice versa (every built-in
   cell is inverting). *)
let[@slc.hot] eval_gate k oracle st gi =
  eval_edge k oracle st gi k.k_rise ~src_at:st.fall_at ~src_slew:st.fall_slew
    ~src_bit:fall_bit ~dst_at:st.rise_at ~dst_slew:st.rise_slew
    ~dst_bit:rise_bit;
  eval_edge k oracle st gi k.k_fall ~src_at:st.rise_at ~src_slew:st.rise_slew
    ~src_bit:rise_bit ~dst_at:st.fall_at ~dst_slew:st.fall_slew
    ~dst_bit:fall_bit

(* Shared forward pass over the compiled graph: every net's arrivals
   plus every gate's used candidates, all in one [pass] of flat arrays;
   nothing is allocated per gate but the oracle's point and answer.

   Gates within a level are evaluated in parallel over the domain pool.
   Each gate writes only its own output net's slots and presence byte
   and its own candidate slice, so slots never race.  Oracle queries
   are pure (and a supplied cache publishes first-wins), so arrivals,
   used candidates and every downstream row are bitwise independent of
   the domain count and identical to a sequential evaluation.

   Queries go straight to the oracle unless the caller supplies a
   [?cache] that persists across passes.  Within a pass keys barely
   repeat — the load is the driving gate's own output net, so siblings
   on a fanout net query different points (the 100k-gate generated
   design misses on every query of a cold pass) — so a per-pass cache
   costs more than it saves; a persistent one is what turns a repeated
   pass into hits. *)
let forward_compiled ?cache ?domains k (oracle : Oracle.t) ~input_arrivals =
  let oracle =
    match cache with Some c -> Oracle.cached c oracle | None -> oracle
  in
  let n_nets = Array.length k.k_names in
  let n_slots = 2 * Array.length k.k_pin_net in
  let st =
    {
      rise_at = Array.make n_nets 0.0;
      rise_slew = Array.make n_nets 0.0;
      fall_at = Array.make n_nets 0.0;
      fall_slew = Array.make n_nets 0.0;
      present = Bytes.make n_nets '\000';
      driver = Array.make n_slots 0;
      delay = Array.make n_slots 0.0;
      used = Array.make (Array.length k.k_out) 0;
    }
  in
  let set_edge n bit at slew = function
    | None -> ()
    | Some e ->
      at.(n) <- e.at;
      slew.(n) <- e.slew;
      mark st n bit
  in
  for n = 0 to n_nets - 1 do
    if k.k_origins.(n) < 0 then begin
      let a = input_arrivals k.k_names.(n) in
      set_edge n rise_bit st.rise_at st.rise_slew a.rise;
      set_edge n fall_bit st.fall_at st.fall_slew a.fall
    end
  done;
  let eval gi = eval_gate k oracle st gi in
  Array.iter
    (fun level ->
      if Array.length level < 2 then Array.iter eval level
      else ignore (Parallel.map ?domains eval level))
    k.k_levels;
  st

let arrival_of st n =
  let edge bit at slew =
    if has st n bit then Some { at = at.(n); slew = slew.(n) } else None
  in
  {
    rise = edge rise_bit st.rise_at st.rise_slew;
    fall = edge fall_bit st.fall_at st.fall_slew;
  }

let arrivals_compiled ?cache ?domains k (oracle : Oracle.t) ~input_arrivals =
  let st = forward_compiled ?cache ?domains k oracle ~input_arrivals in
  fun target ->
    check_compiled_net k target;
    arrival_of st target

let analyze ?cache ?domains t oracle ~input_arrivals target =
  check_net t target;
  arrivals_compiled ?cache ?domains (compile t) oracle ~input_arrivals target

type slack_row = {
  net_label : string;
  arrival_time : float;
  required_time : float;
  slack : float;
}

let slack_report_compiled ?cache ?domains k oracle ~input_arrivals ~outputs =
  List.iter (fun (n, _) -> check_compiled_net k n) outputs;
  let st = forward_compiled ?cache ?domains k oracle ~input_arrivals in
  let n_nets = Array.length k.k_names in
  let required = Array.make n_nets Float.infinity in
  List.iter (fun (n, r) -> required.(n) <- Float.min required.(n) r) outputs;
  (* Backward over gates in reverse construction (reverse topological)
     order: a driver must arrive early enough for every timing arc it
     launches.  [Float.min] over a gate's used candidates is
     order-insensitive, so the rows match the sequential reference no
     matter how the forward pass was scheduled. *)
  for gi = Array.length k.k_out - 1 downto 0 do
    let r_out = required.(k.k_out.(gi)) in
    if r_out < Float.infinity then begin
      let slot = 2 * k.k_pin_off.(gi) in
      for u = slot to slot + st.used.(gi) - 1 do
        let driver = st.driver.(u) in
        required.(driver) <- Float.min required.(driver) (r_out -. st.delay.(u))
      done
    end
  done;
  (* One row per net with an arrival: its worst (latest) edge and the
     slack against its requirement.  The row indices are listed in
     descending net order and stably sorted by slack, so equal slacks
     come out highest net first. *)
  let arrival = Array.make n_nets 0.0 and slack = Array.make n_nets 0.0 in
  let order = Array.make n_nets 0 and n_rows = ref 0 in
  for n = n_nets - 1 downto 0 do
    let bits = Char.code (Bytes.get st.present n) in
    if bits <> 0 then begin
      let at =
        if bits = rise_bit then st.rise_at.(n)
        else if bits = fall_bit then st.fall_at.(n)
        else Float.max st.rise_at.(n) st.fall_at.(n)
      in
      arrival.(n) <- at;
      slack.(n) <- required.(n) -. at;
      order.(!n_rows) <- n;
      incr n_rows
    end
  done;
  let order = Array.sub order 0 !n_rows in
  Array.stable_sort (fun a b -> Float.compare slack.(a) slack.(b)) order;
  Array.fold_right
    (fun n rows ->
      {
        net_label = k.k_names.(n);
        arrival_time = arrival.(n);
        required_time = required.(n);
        slack = slack.(n);
      }
      :: rows)
    order []

let slack_report ?cache ?domains t oracle ~input_arrivals ~outputs =
  List.iter (fun (n, _) -> check_net t n) outputs;
  slack_report_compiled ?cache ?domains (compile t) oracle ~input_arrivals
    ~outputs
