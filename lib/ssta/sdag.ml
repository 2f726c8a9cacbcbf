module Arc = Slc_cell.Arc
module Cells = Slc_cell.Cells
module Chain = Slc_cell.Chain
module Equivalent = Slc_cell.Equivalent
module Harness = Slc_cell.Harness
module Tech = Slc_device.Tech

type net = int

type gate_inst = {
  cell : Cells.t;
  pins : (string * net) list;
  out : net;
}

(* The input capacitance of one (cell, pin), computed once per builder:
   a netlist instantiates few distinct cells, so the list stays short
   and a hit is a scan that allocates nothing. *)
type pin_cap = { pc_cell : Cells.t; pc_pin : string; pc_cap : float }

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
  mutable loads : float array; (* per net: explicit loads, 0.0 if none *)
  mutable n_nets : int;
  mutable gates : gate_inst array; (* n_gates entries live *)
  mutable n_gates : int;
  mutable pin_caps : pin_cap list;
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
    loads = Array.make 16 0.0;
    n_nets = 0;
    gates = Array.make 16 dummy_gate;
    n_gates = 0;
    pin_caps = [];
  }

let grow_floats a n =
  let b = Array.make (2 * Array.length a) 0.0 in
  Array.blit a 0 b 0 n;
  b

let grow_net t =
  if t.n_nets = Array.length t.names then begin
    let cap = 2 * Array.length t.names in
    let names = Array.make cap "" in
    Array.blit t.names 0 names 0 t.n_nets;
    t.names <- names;
    let origins = Array.make cap (-1) in
    Array.blit t.origins 0 origins 0 t.n_nets;
    t.origins <- origins;
    t.caps <- grow_floats t.caps t.n_nets;
    t.loads <- grow_floats t.loads t.n_nets
  end

let fresh_net t name origin =
  grow_net t;
  let id = t.n_nets in
  t.names.(id) <- name;
  t.origins.(id) <- origin;
  t.caps.(id) <- 0.0;
  t.loads.(id) <- 0.0;
  t.n_nets <- t.n_nets + 1;
  id

let input t name = fresh_net t name (-1)

let check_net t n =
  if n < 0 || n >= t.n_nets then Slc_obs.Slc_error.invalid_input ~site:"Sdag" "unknown net"

let rec check_pin_nets t = function
  | [] -> ()
  | (_, n) :: pins ->
    check_net t n;
    check_pin_nets t pins

let rec count_name x = function
  | [] -> 0
  | y :: l -> Bool.to_int (String.equal x y) + count_name x l

let rec count_pin x = function
  | [] -> 0
  | (y, _) :: l -> Bool.to_int (String.equal x y) + count_pin x l

(* [pins] names every pin of [expected] exactly as often as [expected]
   does, checked for each of [names] (a suffix of [expected]).  With
   equal lengths, that makes the two lists equal as multisets. *)
let rec pins_match expected pins = function
  | [] -> true
  | x :: names ->
    count_name x expected = count_pin x pins && pins_match expected pins names

(* The input cap of [cell]'s [pin] from the builder's table, computed
   and added on the first connection of that pin. *)
let rec pin_cap t cell pin = function
  | [] ->
    let pc_cap = Equivalent.input_cap t.tech cell ~pin in
    t.pin_caps <- { pc_cell = cell; pc_pin = pin; pc_cap } :: t.pin_caps;
    pc_cap
  | e :: l ->
    if e.pc_cell == cell && String.equal e.pc_pin pin then e.pc_cap
    else pin_cap t cell pin l

(* Accumulate fanout pin caps onto the driver nets, in pin-list order
   — the same order (and therefore the same floating-point sum) as the
   historical whole-graph rescan. *)
let rec add_pin_caps t cell = function
  | [] -> ()
  | (pin, n) :: pins ->
    t.caps.(n) <- t.caps.(n) +. pin_cap t cell pin t.pin_caps;
    add_pin_caps t cell pins

let gate t cell ~pins ?(wire_cap = 0.0) name =
  let expected = cell.Cells.inputs in
  if
    not
      (List.compare_lengths expected pins = 0
      && pins_match expected pins expected)
  then
    Slc_obs.Slc_error.invalid_input ~site:"Sdag.gate"
      (Printf.sprintf "%s needs pins {%s}, got {%s}" cell.Cells.name
         (String.concat "," (List.sort compare expected))
         (String.concat "," (List.sort compare (List.map fst pins))));
  check_pin_nets t pins;
  let idx = t.n_gates in
  let out = fresh_net t name idx in
  if t.n_gates = Array.length t.gates then begin
    let gates = Array.make (2 * Array.length t.gates) dummy_gate in
    Array.blit t.gates 0 gates 0 t.n_gates;
    t.gates <- gates
  end;
  t.gates.(idx) <- { cell; pins; out };
  t.n_gates <- t.n_gates + 1;
  add_pin_caps t cell pins;
  if wire_cap > 0.0 then t.loads.(out) <- wire_cap;
  out

let set_load t net load =
  check_net t net;
  if load < 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Sdag.set_load" "negative load";
  t.loads.(net) <- load +. t.loads.(net)

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
  check_net t net;
  t.loads.(net) +. t.caps.(net)

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
   distinct (cell, pin, edge) instead of one per gate evaluation), and
   net capacitance is frozen per gate output.  Gates keep construction
   order, which is topological: a pass times them in index order. *)

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
}

(* One resolved timing arc of [compile]'s memo, keyed by (cell name,
   pin, direction): a netlist instantiates few distinct cells, so a
   scan of the list finds the key without hashing or allocating. *)
type resolved = {
  r_cell : string;
  r_pin : string;
  r_dir : Arc.direction;
  r_arc : Arc.t option;
}

let rec resolve memo (cell : Cells.t) pin dir = function
  | [] ->
    let r_arc =
      match Arc.find cell ~pin ~out_dir:dir with
      | exception Not_found -> None
      | arc -> Some arc
    in
    memo :=
      { r_cell = cell.Cells.name; r_pin = pin; r_dir = dir; r_arc } :: !memo;
    r_arc
  | r :: l ->
    if
      r.r_dir = dir && String.equal r.r_pin pin
      && String.equal r.r_cell cell.Cells.name
    then r.r_arc
    else resolve memo cell pin dir l

(* Fills pin slots [p ..] of one gate with their driver nets and their
   arcs of direction [dir]. *)
let rec fill_pins memo cell dir pin_net arcs p = function
  | [] -> ()
  | (pin, n) :: pins ->
    pin_net.(p) <- n;
    arcs.(p) <- resolve memo cell pin dir !memo;
    fill_pins memo cell dir pin_net arcs (p + 1) pins

let compile t =
  let n_nets = t.n_nets and n_gates = t.n_gates in
  let names = Array.sub t.names 0 n_nets in
  let origins = Array.sub t.origins 0 n_nets in
  let pin_off = Array.make (n_gates + 1) 0 in
  for gi = 0 to n_gates - 1 do
    pin_off.(gi + 1) <- pin_off.(gi) + List.length t.gates.(gi).pins
  done;
  let n_pins = pin_off.(n_gates) in
  let pin_net = Array.make n_pins 0 in
  let rise = Array.make n_pins None and fall = Array.make n_pins None in
  let out = Array.make n_gates 0 and load = Array.make n_gates 0.0 in
  (* Rise arcs of a gate before its fall arcs: the order in which arcs
     are first resolved is the order their ids are interned. *)
  let memo = ref [] in
  for gi = 0 to n_gates - 1 do
    let g = t.gates.(gi) and p0 = pin_off.(gi) in
    fill_pins memo g.cell Arc.Rise pin_net rise p0 g.pins;
    fill_pins memo g.cell Arc.Fall pin_net fall p0 g.pins;
    out.(gi) <- g.out;
    load.(gi) <- net_cap t g.out
  done;
  { k_vdd = t.vdd; k_names = names; k_origins = origins; k_out = out;
    k_load = load; k_pin_off = pin_off; k_pin_net = pin_net; k_rise = rise;
    k_fall = fall }

let compiled_nets k = Array.length k.k_names

let compiled_gates k = Array.length k.k_out

(* ASAP levels: a gate's level is 1 + the deepest level among its
   driver nets (primary inputs sit at level 0).  Construction order is
   topological, so one forward sweep suffices. *)
let level_widths k =
  let net_level = Array.make (Array.length k.k_names) 0 in
  let max_level = ref 0 in
  Array.iteri
    (fun gi out ->
      let deepest = ref 0 in
      for p = k.k_pin_off.(gi) to k.k_pin_off.(gi + 1) - 1 do
        deepest := max !deepest net_level.(k.k_pin_net.(p))
      done;
      net_level.(out) <- !deepest + 1;
      max_level := max !max_level (!deepest + 1))
    k.k_out;
  let widths = Array.make !max_level 0 in
  Array.iter
    (fun out ->
      let l = net_level.(out) - 1 in
      widths.(l) <- widths.(l) + 1)
    k.k_out;
  widths

let check_compiled_net k n =
  if n < 0 || n >= Array.length k.k_names then
    Slc_obs.Slc_error.invalid_input ~site:"Sdag" "unknown net"

(* The state of one forward pass, in flat arrays.  Per net, one block
   of four floats in [block] — rise arrival time, rise slew, fall
   arrival time, fall slew, from [4 * n] — and a presence byte (bit 0
   rise, bit 1 fall; an edge whose bit is clear holds no arrival, and
   its slots are never read).  Per pin, one delay slot per output edge:
   [2 * p] for the rising output, [2 * p + 1] for the falling one,
   written when that candidate is used — its driver edge arrived and
   its arc exists — and read back by the backward pass under the same
   test. *)
type pass = {
  block : float array;
  present : Bytes.t;
  delay : float array;
}

let rise_bit = 1

let fall_bit = 2

(* Offsets of an edge's arrival time in a net's block; its slew is the
   next float. *)
let rise_off = 0

let fall_off = 2

let[@slc.hot] has st n bit = Char.code (Bytes.get st.present n) land bit <> 0

let[@slc.hot] mark st n bit =
  Bytes.set st.present n
    (Char.unsafe_chr (Char.code (Bytes.get st.present n) lor bit))

(* The one allocating step of a gate evaluation: the oracle takes a
   point record and answers a boxed pair.  The slew and load are read
   from their arrays here, so that no float is boxed to pass them. *)
let[@slc.alloc_ok "Oracle.query takes a Harness.point and returns a boxed pair"] query
    (oracle : Oracle.t) arc (block : float array) slew k gi =
  oracle.Oracle.query arc
    { Harness.sin = block.(slew); cload = k.k_load.(gi); vdd = k.k_vdd }

(* One output edge ([edge] 0 rising, 1 falling) of gate [gi]: every pin
   whose driver has the [src] edge and whose arc in [arcs] exists is a
   candidate, and the latest wins.  A candidate replaces the best so
   far iff [not (best_at >= at)], so a NaN arrival replaces any best
   and is replaced by the next candidate. *)
let[@slc.hot] eval_edge k oracle st gi arcs ~edge ~src ~src_bit ~dst ~dst_bit =
  let block = st.block in
  let out = k.k_out.(gi) in
  let o = (4 * out) + dst in
  for p = k.k_pin_off.(gi) to k.k_pin_off.(gi + 1) - 1 do
    let driver = k.k_pin_net.(p) in
    if has st driver src_bit then
      match arcs.(p) with
      | None -> ()
      | Some arc ->
        let i = (4 * driver) + src in
        let d, s = query oracle arc block (i + 1) k gi in
        st.delay.((2 * p) + edge) <- d;
        let at = block.(i) +. d in
        if not (has st out dst_bit && block.(o) >= at) then begin
          block.(o) <- at;
          block.(o + 1) <- s;
          mark st out dst_bit
        end
  done

(* An input fall launches an output rise and vice versa (every built-in
   cell is inverting). *)
let[@slc.hot] eval_gate k oracle st gi =
  eval_edge k oracle st gi k.k_rise ~edge:0 ~src:fall_off ~src_bit:fall_bit
    ~dst:rise_off ~dst_bit:rise_bit;
  eval_edge k oracle st gi k.k_fall ~edge:1 ~src:rise_off ~src_bit:rise_bit
    ~dst:fall_off ~dst_bit:fall_bit

(* Shared forward pass over the compiled graph: every net's arrivals
   plus every used candidate's delay, all in one [pass] of flat arrays;
   nothing is allocated per gate but the oracle's point and answer.

   One loop over the gates in construction order, on the caller's
   thread: every driver net is final before the gates it feeds are
   timed.

   Every timing arc is one direct oracle query.  Within a pass keys
   barely repeat — the load is the driving gate's own output net, so
   siblings on a fanout net query different points (the 100k-gate
   generated design misses on every query of a cold pass) — and a
   direct query of a table or a trained model costs less than a warm
   hit of an exact cache.  A caller timing a dear oracle more than once
   wraps it in [Oracle.cached] itself. *)
let forward_compiled k (oracle : Oracle.t) ~input_arrivals =
  let n_nets = Array.length k.k_names in
  let st =
    {
      block = Array.create_float (4 * n_nets);
      present = Bytes.make n_nets '\000';
      delay = Array.create_float (2 * Array.length k.k_pin_net);
    }
  in
  let set_edge n bit off = function
    | None -> ()
    | Some e ->
      st.block.((4 * n) + off) <- e.at;
      st.block.((4 * n) + off + 1) <- e.slew;
      mark st n bit
  in
  for n = 0 to n_nets - 1 do
    if k.k_origins.(n) < 0 then begin
      let a = input_arrivals k.k_names.(n) in
      set_edge n rise_bit rise_off a.rise;
      set_edge n fall_bit fall_off a.fall
    end
  done;
  for gi = 0 to Array.length k.k_out - 1 do
    eval_gate k oracle st gi
  done;
  st

let arrival_of st n =
  let edge bit off =
    if has st n bit then
      Some { at = st.block.((4 * n) + off); slew = st.block.((4 * n) + off + 1) }
    else None
  in
  { rise = edge rise_bit rise_off; fall = edge fall_bit fall_off }

let arrivals_compiled ?cache:_ k (oracle : Oracle.t) ~input_arrivals =
  let st = forward_compiled k oracle ~input_arrivals in
  fun target ->
    check_compiled_net k target;
    arrival_of st target

let analyze ?cache:_ t oracle ~input_arrivals target =
  check_net t target;
  arrivals_compiled (compile t) oracle ~input_arrivals target

type slack_row = {
  net_label : string;
  arrival_time : float;
  required_time : float;
  slack : float;
}

(* One output edge of gate [gi], backward: each candidate the forward
   pass used — found again from the driver's final presence bits and
   the arc table — requires its driver to arrive its delay before the
   gate's output is required.  The candidates come in the order the
   forward pass met them. *)
let[@slc.hot] require_edge k st (required : float array) gi arcs ~edge ~src_bit =
  let r_out = required.(k.k_out.(gi)) in
  if r_out < Float.infinity then
    for p = k.k_pin_off.(gi) to k.k_pin_off.(gi + 1) - 1 do
      let driver = k.k_pin_net.(p) in
      if has st driver src_bit then
        match arcs.(p) with
        | None -> ()
        | Some _ ->
          required.(driver) <-
            Float.min required.(driver) (r_out -. st.delay.((2 * p) + edge))
    done

(* The worst (latest) arrival of a net that has one. *)
let[@slc.hot] [@inline] worst_at st n =
  let bits = Char.code (Bytes.get st.present n) in
  let rise = (4 * n) + rise_off and fall = (4 * n) + fall_off in
  if bits = rise_bit then st.block.(rise)
  else if bits = fall_bit then st.block.(fall)
  else Float.max st.block.(rise) st.block.(fall)

(* An unsigned 64-bit sort key that orders slacks as [Float.compare]
   does: every NaN below everything else, [-0.0] with [0.0], and the
   rest by value — a negative float with all its bits flipped, a
   positive one with its sign bit flipped. *)
let[@slc.hot] [@inline] slack_key x =
  if Float.is_nan x then 0L
  else if x = 0.0 then Int64.min_int
  else
    let b = Int64.bits_of_float x in
    if Int64.compare b 0L < 0 then Int64.lognot b else Int64.logxor b Int64.min_int

let digits = 8 (* radix 256: the key's little-endian bytes *)

(* Lists the nets with an arrival in descending net order into [order],
   writes each one's slack key at [8 * row] of [keys] (little-endian, so
   byte [d] is digit [d]) and counts every digit into [counts], 256
   buckets per digit.  Answers the number of rows. *)
let[@slc.hot] prepare_rows st (required : float array) keys order counts =
  let rows = ref 0 in
  for n = Bytes.length st.present - 1 downto 0 do
    if Bytes.get st.present n <> '\000' then begin
      let i = !rows in
      Bytes.set_int64_le keys (8 * i) (slack_key (required.(n) -. worst_at st n));
      order.(i) <- n;
      for d = 0 to digits - 1 do
        let c = (256 * d) + Bytes.get_uint8 keys ((8 * i) + d) in
        counts.(c) <- counts.(c) + 1
      done;
      rows := i + 1
    end
  done;
  !rows

(* One stable counting pass on digit [d]: moves the first [n] keys and
   row indices of [src_keys]/[src] to [dst_keys]/[dst]. *)
let[@slc.hot] radix_pass counts d n src_keys (src : int array) dst_keys
    (dst : int array) =
  let base = 256 * d in
  let start = ref 0 in
  for b = base to base + 255 do
    let c = counts.(b) in
    counts.(b) <- !start;
    start := !start + c
  done;
  for i = 0 to n - 1 do
    let b = base + Bytes.get_uint8 src_keys ((8 * i) + d) in
    let j = counts.(b) in
    counts.(b) <- j + 1;
    Bytes.set_int64_le dst_keys (8 * j) (Bytes.get_int64_le src_keys (8 * i));
    dst.(j) <- src.(i)
  done

(* LSD radix sort of [n] rows from digit [d] up, ping-ponging between
   the two buffers; answers the array holding the sorted rows.  A digit
   that every row shares leaves the order as it is, so its pass is
   skipped. *)
let rec radix counts n d src_keys src dst_keys dst =
  if d = digits || n = 0 then src
  else if counts.((256 * d) + Bytes.get_uint8 src_keys d) = n then
    radix counts n (d + 1) src_keys src dst_keys dst
  else begin
    radix_pass counts d n src_keys src dst_keys dst;
    radix counts n (d + 1) dst_keys dst src_keys src
  end

let slack_report_compiled ?cache:_ k oracle ~input_arrivals ~outputs =
  List.iter (fun (n, _) -> check_compiled_net k n) outputs;
  let st = forward_compiled k oracle ~input_arrivals in
  let n_nets = Array.length k.k_names in
  let required = Array.make n_nets Float.infinity in
  List.iter (fun (n, r) -> required.(n) <- Float.min required.(n) r) outputs;
  (* Backward over gates in reverse construction (reverse topological)
     order: a driver must arrive early enough for every timing arc it
     launches. *)
  for gi = Array.length k.k_out - 1 downto 0 do
    require_edge k st required gi k.k_rise ~edge:0 ~src_bit:fall_bit;
    require_edge k st required gi k.k_fall ~edge:1 ~src_bit:rise_bit
  done;
  (* One row per net with an arrival: its worst (latest) edge and the
     slack against its requirement.  The rows are listed in descending
     net order and stably sorted by slack key, so equal slacks come out
     highest net first. *)
  let keys = Bytes.create (8 * n_nets) and order = Array.make n_nets 0 in
  let counts = Array.make (256 * digits) 0 in
  let n_rows = prepare_rows st required keys order counts in
  let order =
    radix counts n_rows 0 keys order
      (Bytes.create (8 * n_rows))
      (Array.make n_rows 0)
  in
  let rows = ref [] in
  for i = n_rows - 1 downto 0 do
    let n = order.(i) in
    let at = worst_at st n in
    rows :=
      {
        net_label = k.k_names.(n);
        arrival_time = at;
        required_time = required.(n);
        slack = required.(n) -. at;
      }
      :: !rows
  done;
  !rows

let slack_report ?cache:_ t oracle ~input_arrivals ~outputs =
  List.iter (fun (n, _) -> check_net t n) outputs;
  slack_report_compiled (compile t) oracle ~input_arrivals
    ~outputs
