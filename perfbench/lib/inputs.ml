(* Seeded workload inputs.  Everything the program under test sees is
   built here from the workload seed, so the same seed always gives the
   same process-seed set, request streams and netlist bytes. *)

module Rng = Slc_prob.Rng
module Tech = Slc_device.Tech
module Process = Slc_device.Process
module Cells = Slc_cell.Cells
module Arc = Slc_cell.Arc

let tech = Tech.n28

(* Independent sub-streams of one workload seed. *)
let substream ~seed tag = Rng.split_ix (Rng.create seed) tag

(* ------------------------------------------------------------------ *)
(* charlib: a seeded subset of a fixed process-seed pool.  The
   Monte-Carlo reference in data/charlib_ref.txt holds per-seed
   simulations for the whole pool, so the reference moments of any
   subset are exact. *)

let pool_rng = 2015
let pool_size = 384
let subset_size = 256

let pool () = Process.sample_batch (Rng.create pool_rng) tech pool_size

(* Ascending pool indices of the run's process seeds. *)
let subset ~seed =
  let ix = Array.init pool_size Fun.id in
  Rng.shuffle (substream ~seed 1) ix;
  let s = Array.sub ix 0 subset_size in
  Array.sort Int.compare s;
  s

(* The chosen pool seeds, re-indexed 0..n-1 as Statistical expects.  A
   seed's device variation does not depend on its index. *)
let process_seeds pool ix =
  Array.mapi (fun i j -> { pool.(j) with Process.index = i }) ix

let charlib_arcs =
  List.concat_map
    (fun cell ->
      [ Arc.find cell ~pin:"A" ~out_dir:Arc.Rise;
        Arc.find cell ~pin:"A" ~out_dir:Arc.Fall ])
    [ Cells.inv; Cells.nand2; Cells.nor2 ]

(* ------------------------------------------------------------------ *)
(* ssta: the workload seed picks one of a fixed family of generated
   designs, whose slack-report digests are stored in
   data/ssta_digests.txt. *)

let ssta_designs = 16
let ssta_gates = 100_000
let design_seed ~seed = ((seed mod ssta_designs) + ssta_designs) mod ssta_designs

(* ------------------------------------------------------------------ *)
(* serve: a structural-Verilog netlist and one request stream per
   client. *)

let netlist_gates = 600
let netlist_inputs = 16

let netlist ~seed =
  let rng = substream ~seed 2 in
  let nets = Array.make (netlist_inputs + netlist_gates) "" in
  let fanout = Array.make (Array.length nets) 0 in
  for i = 0 to netlist_inputs - 1 do
    nets.(i) <- Printf.sprintf "i%d" i
  done;
  let b = Buffer.create (64 * netlist_gates) in
  (* Fanins come from a window of recent nets, which gives depth. *)
  let pick avail exclude =
    let lo = max 0 (avail - 64) in
    let rec go () =
      let j = lo + Rng.int rng (avail - lo) in
      if j = exclude then go () else j
    in
    go ()
  in
  for g = 0 to netlist_gates - 1 do
    let out = netlist_inputs + g in
    nets.(out) <- Printf.sprintf "n%d" g;
    let u = Rng.float rng in
    let a = pick out (-1) in
    fanout.(a) <- fanout.(a) + 1;
    if u < 0.3 then
      Printf.bprintf b "  INV u%d (.A(%s), .Y(%s));\n" g nets.(a) nets.(out)
    else begin
      let c = pick out a in
      fanout.(c) <- fanout.(c) + 1;
      Printf.bprintf b "  %s u%d (.A(%s), .B(%s), .Y(%s));\n"
        (if u < 0.65 then "NAND2" else "NOR2")
        g nets.(a) nets.(c) nets.(out)
    end
  done;
  let inputs = Array.to_list (Array.sub nets 0 netlist_inputs) in
  let gate_nets = Array.to_list (Array.sub nets netlist_inputs netlist_gates) in
  let is_output n =
    let i = netlist_inputs + int_of_string (String.sub n 1 (String.length n - 1)) in
    fanout.(i) = 0
  in
  let outputs = List.filter is_output gate_nets in
  let wires = List.filter (fun n -> not (is_output n)) gate_nets in
  let decl kw names = Printf.sprintf "  %s %s;\n" kw (String.concat ", " names) in
  String.concat ""
    [
      Printf.sprintf "module bench (%s);\n" (String.concat ", " (inputs @ outputs));
      decl "input" inputs;
      decl "output" outputs;
      decl "wire" wires;
      Buffer.contents b;
      "endmodule\n";
    ]

let serve_arcs =
  List.concat_map
    (fun (cell, pins) ->
      List.concat_map
        (fun pin -> [ (cell, pin, "rise"); (cell, pin, "fall") ])
        pins)
    [ ("INV", [ "A" ]); ("NAND2", [ "A"; "B" ]); ("NOR2", [ "A"; "B" ]) ]

let serve_keys = 48
let serve_pdf_keys = 3
let stream_len = 20_000

(* Request mix: shares of sta and pdf; the rest are delay/slew. *)
let sta_share = 0.01
let pdf_share = 0.02
let slew_share = 0.25

let point rng =
  let box = Slc_core.Input_space.box tech in
  let coord i =
    let lo, hi = box.(i) in
    lo +. ((hi -. lo) *. Rng.float rng)
  in
  Printf.sprintf "%.6e %.6e %.6e" (coord 0) (coord 1) (coord 2)

type keyset = {
  keys : (string * string) array;  (* (tech cell pin dir k, point) *)
  cumulative : float array;  (* Zipf(1) weights over [keys] *)
  pdfs : string array;  (* complete pdf request lines *)
}

let keyset ~seed =
  let rng = substream ~seed 3 in
  let arcs = Array.of_list serve_arcs in
  let keys =
    Array.init serve_keys (fun _ ->
        let cell, pin, dir = arcs.(Rng.int rng (Array.length arcs)) in
        let k = 2 + Rng.int rng 2 in
        (Printf.sprintf "n28 %s %s %s %d" cell pin dir k, point rng))
  in
  let total = ref 0.0 in
  let cumulative =
    Array.init serve_keys (fun r ->
        total := !total +. (1.0 /. float_of_int (r + 1));
        !total)
  in
  let pdfs =
    Array.init serve_pdf_keys (fun i ->
        let cell, pin, dir = arcs.(Rng.int rng (Array.length arcs)) in
        Printf.sprintf "pdf n28 %s %s %s bayes 3 24 %d 32 %s" cell pin dir
          (100 + i) (point rng))
  in
  { keys; cumulative; pdfs }

let zipf ks rng =
  let u = Rng.float rng *. ks.cumulative.(Array.length ks.cumulative - 1) in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if ks.cumulative.(mid) >= u then find lo mid else find (mid + 1) hi
  in
  find 0 (Array.length ks.cumulative - 1)

(* Client [client]'s request lines.  The first is always a delay query,
   so every client's first reply needs a trained bank. *)
let requests ~seed ~client ~netlist_path =
  let ks = keyset ~seed in
  let rng = substream ~seed (10 + client) in
  let query kind =
    let arc, pt = ks.keys.(zipf ks rng) in
    Printf.sprintf "%s %s %s" kind arc pt
  in
  Array.init stream_len (fun i ->
      let u = Rng.float rng in
      if i = 0 then query "delay"
      else if u < sta_share then
        Printf.sprintf "sta n28 3 1e-9 %s" netlist_path
      else if u < sta_share +. pdf_share then
        ks.pdfs.(Rng.int rng serve_pdf_keys)
      else if u < sta_share +. pdf_share +. slew_share then query "slew"
      else query "delay")
