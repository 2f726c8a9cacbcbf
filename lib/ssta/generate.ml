module Cells = Slc_cell.Cells
module Rng = Slc_prob.Rng

type design = {
  dag : Sdag.t;
  inputs : Sdag.net array;
  outputs : Sdag.net array;
  compiled : Sdag.compiled;
}

let default_cells = [| Cells.inv; Cells.nand2; Cells.nor2 |]

(* One exponentially distributed wire load.  The uniform draw is forced
   into (0, 1] before the log: [Rng.float] is specified as [0, 1), so
   [1.0 -. u] is already positive today, but a generator whose draw can
   reach (or round to) 1.0 would make [log 0.0 = -inf] — an infinite
   cap that poisons every downstream arrival.  The clamp is the
   identity for every value the current generator produces, so existing
   seeds keep their bitwise designs. *)
let wire_cap_draw r ~mean =
  let u = 1.0 -. Rng.float r in
  let u = if u > 0.0 then u else Float.min_float in
  -.mean *. log u

(* Connects each of [pins], in order, to a driver drawn uniformly over
   the first [avail] nets, counting the fanout it adds. *)
let rec draw_pins r nets fanout avail = function
  | [] -> []
  | pin :: pins ->
    let d = Rng.int r avail in
    fanout.(d) <- fanout.(d) + 1;
    let p = (pin, nets.(d)) in
    p :: draw_pins r nets fanout avail pins

let design ?(inputs = 32) ?(cells = default_cells) ?(mean_wire_cap = 0.5e-15)
    ?(out_load = 2.0e-15) tech ~vdd ~seed ~gates =
  if inputs <= 0 then
    Slc_obs.Slc_error.invalid_input ~site:"Generate.design" "inputs must be > 0";
  if gates <= 0 then
    Slc_obs.Slc_error.invalid_input ~site:"Generate.design" "gates must be > 0";
  if Array.length cells = 0 then
    Slc_obs.Slc_error.invalid_input ~site:"Generate.design" "empty cell set";
  if mean_wire_cap < 0.0 then
    Slc_obs.Slc_error.invalid_input ~site:"Generate.design" "negative wire cap";
  let dag = Sdag.create tech ~vdd in
  let root = Rng.create seed in
  let n_nets = inputs + gates in
  let first = Sdag.input dag "in0" in
  let nets = Array.make n_nets first in
  for i = 1 to inputs - 1 do
    nets.(i) <- Sdag.input dag (Printf.sprintf "in%d" i)
  done;
  let fanout = Array.make n_nets 0 in
  let avail = ref inputs in
  for gi = 0 to gates - 1 do
    (* One sub-stream per gate, derived from (root state, index): the
       construction is serial, but keying by index keeps every gate's
       draws independent of how many draws its predecessors made, so
       editing one cell's pin count never reshuffles the whole design. *)
    let r = Rng.split_ix root gi in
    let cell = cells.(Rng.int r (Array.length cells)) in
    (* Drivers drawn uniformly over all nets created so far: expected
       depth grows logarithmically in the gate count, so big designs
       come out wide and shallow, with a skewed fanout distribution
       (early nets accumulate the most sinks). *)
    let pins = draw_pins r nets fanout !avail cell.Cells.inputs in
    let wire_cap = wire_cap_draw r ~mean:mean_wire_cap in
    let out = Sdag.gate dag cell ~pins ~wire_cap ("g" ^ string_of_int gi) in
    nets.(!avail) <- out;
    incr avail
  done;
  (* Gate outputs nobody consumes are the primary outputs. *)
  let outs = ref [] in
  for i = n_nets - 1 downto inputs do
    if fanout.(i) = 0 then outs := nets.(i) :: !outs
  done;
  let outputs = Array.of_list !outs in
  Array.iter (fun n -> Sdag.set_load dag n out_load) outputs;
  { dag; inputs = Array.sub nets 0 inputs; outputs; compiled = Sdag.compile dag }

let both_edges ~at ~slew =
  {
    Sdag.rise = Some { Sdag.at; slew };
    fall = Some { Sdag.at; slew };
  }

let required d r = Array.to_list (Array.map (fun n -> (n, r)) d.outputs)
