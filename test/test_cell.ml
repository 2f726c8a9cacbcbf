(* Tests for the standard-cell layer: topologies, cells, arcs,
   equivalent-inverter reduction, the characterization harness and NLDM
   tables. *)

open Slc_cell
module Tech = Slc_device.Tech
module Process = Slc_device.Process
module Rng = Slc_prob.Rng

let tech = Tech.n14

let mid_point = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 }

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Topology *)

let dev ?(w = 1.0) pin = Topology.Dev { pin; width_mult = w }

let test_conducts () =
  let series = Topology.Series [ dev "A"; dev "B" ] in
  let par = Topology.Parallel [ dev "A"; dev "B" ] in
  let on_a p = String.equal p "A" in
  Alcotest.(check bool) "series needs both" false (Topology.conducts series ~on:on_a);
  Alcotest.(check bool) "parallel needs one" true (Topology.conducts par ~on:on_a);
  Alcotest.(check bool) "series both on" true
    (Topology.conducts series ~on:(fun _ -> true))

let test_equivalent_width () =
  let series = Topology.Series [ dev ~w:2.0 "A"; dev ~w:2.0 "B" ] in
  check_close ~tol:1e-12 "two 2x in series = 1x" 1.0
    (Topology.equivalent_width_mult series ~on:(fun _ -> true));
  let par = Topology.Parallel [ dev "A"; dev "B" ] in
  check_close ~tol:1e-12 "parallel adds (both on)" 2.0
    (Topology.equivalent_width_mult par ~on:(fun _ -> true));
  check_close ~tol:1e-12 "parallel one on" 1.0
    (Topology.equivalent_width_mult par ~on:(String.equal "A"));
  check_close ~tol:1e-12 "off network" 0.0
    (Topology.equivalent_width_mult series ~on:(String.equal "A"))

let test_validate () =
  Alcotest.check_raises "empty group"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Topology.validate" "empty series/parallel group"))
    (fun () -> Topology.validate (Topology.Series []));
  Alcotest.check_raises "bad width"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Topology.validate" "width multiplier must be > 0"))
    (fun () -> Topology.validate (dev ~w:0.0 "A"))

(* ------------------------------------------------------------------ *)
(* Cells *)

(* Pull-up and pull-down conduction are complements over every input
   assignment: [logic_value] is never [None]. *)
let is_complementary cell =
  let inputs = cell.Cells.inputs in
  List.for_all
    (fun mask ->
      let on pin =
        match List.find_index (String.equal pin) inputs with
        | Some i -> mask land (1 lsl i) <> 0
        | None -> Alcotest.fail ("unknown pin " ^ pin)
      in
      Cells.logic_value cell ~on <> None)
    (List.init (1 lsl List.length inputs) Fun.id)

let test_all_cells_complementary () =
  List.iter
    (fun cell ->
      Alcotest.(check bool)
        (cell.Cells.name ^ " complementary")
        true
        (is_complementary cell))
    Cells.all

let test_logic_values () =
  (* NAND2 truth table. *)
  let out a b =
    Cells.logic_value Cells.nand2 ~on:(fun p ->
        if String.equal p "A" then a else b)
  in
  Alcotest.(check (option bool)) "00" (Some true) (out false false);
  Alcotest.(check (option bool)) "01" (Some true) (out false true);
  Alcotest.(check (option bool)) "10" (Some true) (out true false);
  Alcotest.(check (option bool)) "11" (Some false) (out true true);
  (* AOI21: out = !(A.B + C) *)
  let aoi a b c =
    Cells.logic_value Cells.aoi21 ~on:(fun p ->
        match p with
        | "A" -> a
        | "B" -> b
        | _ -> c)
  in
  Alcotest.(check (option bool)) "A.B" (Some false) (aoi true true false);
  Alcotest.(check (option bool)) "C" (Some false) (aoi false false true);
  Alcotest.(check (option bool)) "none" (Some true) (aoi false true false)

let test_by_name () =
  Alcotest.(check string) "lookup" "NOR3" (Cells.by_name "NOR3").Cells.name;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Cells.by_name "XOR9"))

let test_four_input_cells () =
  Alcotest.(check int) "eleven cells" 11 (List.length Cells.all);
  (* NAND4 truth table boundary rows. *)
  let nand4 v = Cells.logic_value (Cells.by_name "NAND4") ~on:(fun _ -> v) in
  Alcotest.(check (option bool)) "all low" (Some true) (nand4 false);
  Alcotest.(check (option bool)) "all high" (Some false) (nand4 true);
  (* AOI22: out = !(A.B + C.D). *)
  let aoi22 a b c d =
    Cells.logic_value (Cells.by_name "AOI22") ~on:(fun p ->
        match p with "A" -> a | "B" -> b | "C" -> c | _ -> d)
  in
  Alcotest.(check (option bool)) "A.B pulls low" (Some false)
    (aoi22 true true false false);
  Alcotest.(check (option bool)) "C.D pulls low" (Some false)
    (aoi22 false false true true);
  Alcotest.(check (option bool)) "one of each high" (Some true)
    (aoi22 true false true false);
  (* OAI22: out = !((A+B).(C+D)). *)
  let oai22 a b c d =
    Cells.logic_value (Cells.by_name "OAI22") ~on:(fun p ->
        match p with "A" -> a | "B" -> b | "C" -> c | _ -> d)
  in
  Alcotest.(check (option bool)) "both sides on" (Some false)
    (oai22 true false false true);
  Alcotest.(check (option bool)) "one side off" (Some true)
    (oai22 true true false false);
  (* Every 4-input cell has 8 arcs. *)
  List.iter
    (fun c ->
      Alcotest.(check int)
        (c.Cells.name ^ " arcs")
        8
        (List.length (Arc.all_of_cell c)))
    [ (Cells.by_name "NAND4"); (Cells.by_name "NOR4"); (Cells.by_name "AOI22"); (Cells.by_name "OAI22") ]

(* ------------------------------------------------------------------ *)
(* Arc *)

let test_arc_counts () =
  let count cell = List.length (Arc.all_of_cell cell) in
  Alcotest.(check int) "INV arcs" 2 (count Cells.inv);
  Alcotest.(check int) "NAND2 arcs" 4 (count Cells.nand2);
  Alcotest.(check int) "NAND3 arcs" 6 (count Cells.nand3);
  Alcotest.(check int) "AOI21 arcs" 6 (count Cells.aoi21)

let test_arc_side_values () =
  (* NAND2 arc on A: B must be high (non-controlling for NAND). *)
  let arc = Arc.find Cells.nand2 ~pin:"A" ~out_dir:Arc.Fall in
  Alcotest.(check (option bool)) "B high" (Some true)
    (List.assoc_opt "B" arc.Arc.side_values);
  (* NOR2 arc on A: B must be low. *)
  let arc2 = Arc.find Cells.nor2 ~pin:"A" ~out_dir:Arc.Rise in
  Alcotest.(check (option bool)) "B low" (Some false)
    (List.assoc_opt "B" arc2.Arc.side_values)

let test_arc_direction_semantics () =
  let fall = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  Alcotest.(check bool) "input rises for falling output" true
    (Arc.input_rises fall);
  let rise = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Rise in
  Alcotest.(check bool) "input falls for rising output" false
    (Arc.input_rises rise)

let test_arc_unknown_pin () =
  Alcotest.check_raises "unknown pin" Not_found (fun () ->
      ignore (Arc.find Cells.inv ~pin:"Z" ~out_dir:Arc.Fall))

let test_arc_name () =
  let arc = Arc.find Cells.nand2 ~pin:"B" ~out_dir:Arc.Rise in
  Alcotest.(check string) "name" "NAND2/B/rise" (Arc.name arc)

(* ------------------------------------------------------------------ *)
(* Equivalent *)

let test_equivalent_inverter_widths () =
  (* INV fall: single NMOS at wn_mult. *)
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let eq = Equivalent.of_arc ~stack_factor:1.0 tech arc in
  check_close ~tol:1e-12 "inv fall width" 1.0 eq.Equivalent.width_mult;
  (* NAND2 fall: two unit devices in series under a 2x cell sizing ->
     the stack matches the reference inverter drive (1x). *)
  let arc2 = Arc.find Cells.nand2 ~pin:"A" ~out_dir:Arc.Fall in
  let eq2 = Equivalent.of_arc ~stack_factor:1.0 tech arc2 in
  check_close ~tol:1e-12 "nand2 fall width" 1.0 eq2.Equivalent.width_mult;
  (* NOR2 rise: two 4x PMOS in series -> 2x equivalent. *)
  let arc3 = Arc.find Cells.nor2 ~pin:"A" ~out_dir:Arc.Rise in
  let eq3 = Equivalent.of_arc ~stack_factor:1.0 tech arc3 in
  check_close ~tol:1e-12 "nor2 rise width" 2.0 eq3.Equivalent.width_mult

let test_input_cap_closed_form () =
  (* INV pin A: wn_mult*cg_n*w + wp_mult*cg_p*w. *)
  let module M = Slc_device.Mosfet in
  let expected =
    (1.0 *. M.cgate tech.Tech.nmos) +. (2.0 *. M.cgate tech.Tech.pmos)
  in
  check_close ~tol:1e-20 "INV input cap" expected
    (Equivalent.input_cap tech Cells.inv ~pin:"A");
  (* NAND2 pin B equals pin A by symmetry. *)
  check_close ~tol:1e-20 "NAND2 pin symmetry"
    (Equivalent.input_cap tech Cells.nand2 ~pin:"A")
    (Equivalent.input_cap tech Cells.nand2 ~pin:"B")

let test_library_missing_arc_raises () =
  let lib = Library.characterize ~cells:[ Cells.inv ] tech ~levels:[| 2; 2; 1 |] in
  let foreign = Arc.find Cells.nor2 ~pin:"A" ~out_dir:Arc.Fall in
  Alcotest.(check bool) "missing arc" true
    (Library.find lib ~cell:foreign.Arc.cell.Cells.name ~pin:foreign.Arc.pin
       ~out_dir:foreign.Arc.out_dir
    = None)

let test_stack_factor_derates () =
  let arc = Arc.find Cells.nand2 ~pin:"A" ~out_dir:Arc.Fall in
  let eq_derated = Equivalent.of_arc ~stack_factor:0.9 tech arc in
  let eq_ideal = Equivalent.of_arc ~stack_factor:1.0 tech arc in
  Alcotest.(check bool) "derated smaller" true
    (eq_derated.Equivalent.width_mult < eq_ideal.Equivalent.width_mult)

let test_ieff_with_seed_shifts () =
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let nominal = Equivalent.ieff_with_seed tech Process.nominal arc ~vdd:0.8 in
  let slow =
    { Process.nominal with Process.dvt_n = 0.05; dkp_rel = -0.1 }
  in
  let shifted = Equivalent.ieff_with_seed tech slow arc ~vdd:0.8 in
  Alcotest.(check bool) "slow seed lowers ieff" true (shifted < nominal)

(* ------------------------------------------------------------------ *)
(* Harness *)

let test_simulate_all_cells_mid_point () =
  List.iter
    (fun cell ->
      List.iter
        (fun arc ->
          let m = Harness.simulate tech arc mid_point in
          Alcotest.(check bool)
            (Arc.name arc ^ " delay in range")
            true
            (m.Harness.td > 1e-12 && m.Harness.td < 2e-10);
          Alcotest.(check bool)
            (Arc.name arc ^ " slew in range")
            true
            (m.Harness.sout > 1e-12 && m.Harness.sout < 5e-10))
        (Arc.all_of_cell cell))
    [ Cells.inv; (Cells.by_name "NOR3"); (Cells.by_name "OAI21") ]

let test_delay_monotone_in_cload () =
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let delays =
    List.map
      (fun cl -> (Harness.simulate tech arc { mid_point with Harness.cload = cl }).Harness.td)
      [ 0.5e-15; 2e-15; 4e-15; 6e-15 ]
  in
  let rec mono = function
    | a :: b :: tl -> a < b && mono (b :: tl)
    | _ -> true
  in
  Alcotest.(check bool) "delay increases with load" true (mono delays)

let test_delay_decreases_with_vdd () =
  let arc = Arc.find Cells.nand2 ~pin:"A" ~out_dir:Arc.Fall in
  let d_at vdd = (Harness.simulate tech arc { mid_point with Harness.vdd = vdd }).Harness.td in
  Alcotest.(check bool) "higher vdd faster" true (d_at 1.0 < d_at 0.7)

let test_delay_increases_with_sin () =
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let d_at sin = (Harness.simulate tech arc { mid_point with Harness.sin = sin }).Harness.td in
  Alcotest.(check bool) "slower input slower gate" true (d_at 14e-12 > d_at 2e-12)

let test_seed_changes_delay () =
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let rng = Rng.create 3 in
  let seed = (Process.sample_batch rng tech 1).(0) in
  let nominal = (Harness.simulate tech arc mid_point).Harness.td in
  let varied = (Harness.simulate ~seed tech arc mid_point).Harness.td in
  Alcotest.(check bool) "seed shifts delay" true
    (Float.abs (varied -. nominal) > 1e-16)

let test_simulation_deterministic () =
  let arc = Arc.find Cells.nor2 ~pin:"B" ~out_dir:Arc.Fall in
  let m1 = Harness.simulate tech arc mid_point in
  let m2 = Harness.simulate tech arc mid_point in
  check_close ~tol:0.0 "same delay" m1.Harness.td m2.Harness.td

let test_sim_counter () =
  Harness.reset_sim_count ();
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  ignore (Harness.simulate tech arc mid_point);
  ignore (Harness.simulate tech arc mid_point);
  Alcotest.(check int) "two sims" 2 (Harness.sim_count ())

(* The compiled-template cache in Harness must be purely a structural
   optimization: measurements have to be exactly those of building and
   simulating the netlist from scratch, for every seed and point.  This
   reference path rebuilds the netlist per call (no template reuse) and
   replicates simulate's first-attempt window and measurements. *)
let reference_simulate ?seed t arc (point : Harness.point) =
  let module Tr = Slc_spice.Transient in
  let module Wf = Slc_spice.Waveform in
  let net, nin, nout = Harness.build_netlist ?seed t arc point in
  let eq = Equivalent.of_arc t arc in
  let tau =
    (point.Harness.cload +. Equivalent.parasitic_cap t arc)
    *. point.Harness.vdd
    /. Float.max 1e-12 (Equivalent.ieff eq ~vdd:point.Harness.vdd)
  in
  let window =
    Float.max (8.0 *. tau) (Float.max (3.0 *. point.Harness.sin) 2.0e-11)
  in
  let ramp_start = 1e-12 in
  let tstop = ramp_start +. point.Harness.sin +. window in
  let opts =
    {
      (Tr.default_options ~tstop) with
      Tr.dt_max = tstop /. 300.0;
      breakpoints =
        Slc_spice.Stimulus.breakpoints ~t0:ramp_start
          ~duration:point.Harness.sin;
    }
  in
  let res = Tr.run opts net in
  let win = Tr.waveform res nin in
  let wout = Tr.waveform res nout in
  let out_dir =
    match arc.Arc.out_dir with Arc.Fall -> Wf.Falling | Arc.Rise -> Wf.Rising
  in
  let td =
    Wf.measure_delay ~input:win ~output:wout ~vdd:point.Harness.vdd ~out_dir
  in
  let sout = Wf.measure_slew wout ~vdd:point.Harness.vdd out_dir in
  (* Supply energy from the sense resistor (r_sense = 1 ohm) between
     the source node (1) and the rail node (2). *)
  let w_src = Tr.waveform res 1 and w_rail = Tr.waveform res 2 in
  let current i = (w_src.Wf.values.(i) -. w_rail.Wf.values.(i)) /. 1.0 in
  let i_leak = current 0 in
  let q = ref 0.0 in
  let times = (w_src.Wf.times :> float array) in
  for i = 0 to Array.length times - 2 do
    let dt = times.(i + 1) -. times.(i) in
    q :=
      !q
      +. (0.5 *. ((current i -. i_leak) +. (current (i + 1) -. i_leak)) *. dt)
  done;
  (td, sout, point.Harness.vdd *. !q)

let test_simulate_matches_uncached_reference () =
  let rng = Rng.create 7 in
  let seeds = Array.to_list (Process.sample_batch rng tech 2) in
  let seeds = Process.nominal :: seeds in
  let arcs =
    [
      Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall;
      Arc.find Cells.nor2 ~pin:"A" ~out_dir:Arc.Rise;
    ]
  in
  let points =
    [
      { Harness.sin = 3e-12; cload = 1e-15; vdd = 0.8 };
      { Harness.sin = 8e-12; cload = 4e-15; vdd = 0.7 };
      { Harness.sin = 5e-12; cload = 0.0; vdd = 0.9 };
    ]
  in
  List.iter
    (fun arc ->
      List.iter
        (fun seed ->
          List.iter
            (fun point ->
              let m = Harness.simulate ~seed tech arc point in
              Alcotest.(check int) "no retries on this grid" 0 m.Harness.retries;
              match reference_simulate ~seed tech arc point with
              | Some td, Some sout, energy ->
                check_close ~tol:0.0 "td identical" td m.Harness.td;
                check_close ~tol:0.0 "sout identical" sout m.Harness.sout;
                check_close ~tol:0.0 "energy identical" energy m.Harness.energy
              | _ -> Alcotest.fail "reference measurement failed")
            points)
        seeds)
    arcs

let test_invalid_point_rejected () =
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  Alcotest.check_raises "bad sin"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Harness.build_netlist" "invalid input condition"))
    (fun () ->
      ignore
        (Harness.build_netlist tech arc { mid_point with Harness.sin = 0.0 }))

let test_energy_physics () =
  (* Rising-output energy: slope vs Cload must equal Vdd^2, and the
     falling transition draws only crowbar charge. *)
  let rise = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Rise in
  let fall = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let vdd = 0.8 in
  let e arc cl =
    (Harness.simulate tech arc { Harness.sin = 5e-12; cload = cl; vdd }).Harness.energy
  in
  let e1 = e rise 1e-15 and e4 = e rise 4e-15 in
  let slope = (e4 -. e1) /. 3e-15 in
  Alcotest.(check bool)
    (Printf.sprintf "dE/dC = Vdd^2 (got %.3f vs %.3f)" slope (vdd *. vdd))
    true
    (Float.abs (slope -. (vdd *. vdd)) < 0.1 *. vdd *. vdd);
  Alcotest.(check bool) "rise energy above CV^2" true (e1 > 1e-15 *. vdd *. vdd);
  Alcotest.(check bool) "fall crowbar only" true (e fall 2e-15 < 0.2 *. e rise 2e-15);
  Alcotest.(check bool) "fall positive" true (e fall 2e-15 > 0.0)

let test_energy_grows_with_vdd () =
  let rise = Arc.find Cells.nand2 ~pin:"A" ~out_dir:Arc.Rise in
  let e vdd =
    (Harness.simulate tech rise { Harness.sin = 5e-12; cload = 2e-15; vdd }).Harness.energy
  in
  Alcotest.(check bool) "higher vdd more energy" true (e 1.0 > e 0.7)

let test_pvt_ordering () =
  (* Classic signoff ordering: SS/hot/low-V slowest, FF/cold/high-V
     fastest, TT in between. *)
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let d ?seed t vdd =
    (Harness.simulate ?seed t arc { mid_point with Harness.vdd }).Harness.td
  in
  let tt = d tech 0.8 in
  let hot = Tech.at_temperature tech ~celsius:125.0 in
  let cold = Tech.at_temperature tech ~celsius:(-40.0) in
  let worst = d ~seed:(Process.corner hot Process.Ss) hot 0.72 in
  let best = d ~seed:(Process.corner cold Process.Ff) cold 0.88 in
  Alcotest.(check bool) "worst > typ" true (worst > tt);
  Alcotest.(check bool) "best < typ" true (best < tt);
  Alcotest.(check bool) "meaningful spread" true (worst > 1.5 *. best)

let test_point_vec_roundtrip () =
  let v = Harness.vec_of_point mid_point in
  let p = Harness.point_of_vec v in
  Alcotest.(check bool) "roundtrip" true (p = mid_point)

(* ------------------------------------------------------------------ *)
(* Nldm *)

let test_design_levels () =
  let box = Tech.input_box tech in
  let l = Nldm.design_levels ~budget:60 ~box in
  let product = l.(0) * l.(1) * l.(2) in
  Alcotest.(check bool) "within budget" true (product <= 60);
  Alcotest.(check bool) "uses most of it" true (product >= 48);
  let one = Nldm.design_levels ~budget:1 ~box in
  Alcotest.(check (array int)) "budget 1" [| 1; 1; 1 |] one

let test_lut_exact_at_grid_points () =
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let t = Nldm.build tech arc ~levels:[| 2; 2; 2 |] in
  (* At a grid corner the interpolation must reproduce the simulation. *)
  let p =
    {
      Harness.sin = (t.Nldm.sin_axis :> float array).(0);
      cload = (t.Nldm.cload_axis :> float array).(1);
      vdd = (t.Nldm.vdd_axis :> float array).(0);
    }
  in
  check_close ~tol:1e-18 "exact at node" t.Nldm.td.(0).(1).(0)
    (Nldm.lookup_td t p);
  check_close ~tol:1e-18 "slew exact at node" t.Nldm.sout.(0).(1).(0)
    (Nldm.lookup_sout t p)

let test_lut_interpolates_between () =
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let t = Nldm.build tech arc ~levels:[| 2; 2; 2 |] in
  let p =
    {
      Harness.sin = 0.5 *. ((t.Nldm.sin_axis :> float array).(0) +. (t.Nldm.sin_axis :> float array).(1));
      cload = (t.Nldm.cload_axis :> float array).(0);
      vdd = (t.Nldm.vdd_axis :> float array).(0);
    }
  in
  let v = Nldm.lookup_td t p in
  let lo = Float.min t.Nldm.td.(0).(0).(0) t.Nldm.td.(1).(0).(0) in
  let hi = Float.max t.Nldm.td.(0).(0).(0) t.Nldm.td.(1).(0).(0) in
  Alcotest.(check bool) "between corners" true (v >= lo && v <= hi)

(* Every grid point of the switching-energy table holds a measured,
   positive energy. *)
let test_lut_energy_lookup () =
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Rise in
  let t = Nldm.build tech arc ~levels:[| 2; 2; 2 |] in
  Array.iter
    (Array.iter
       (Array.iter (fun e ->
            Alcotest.(check bool) "finite and positive" true
              (Float.is_finite e && e > 0.0))))
    t.Nldm.energy

let prop_design_levels_budget =
  QCheck.Test.make ~name:"design_levels respects and uses the budget"
    ~count:60
    QCheck.(int_range 1 150)
    (fun budget ->
      let box = Tech.input_box tech in
      let l = Nldm.design_levels ~budget ~box in
      let product = l.(0) * l.(1) * l.(2) in
      product <= budget
      && product >= max 1 (budget / 2)
      && Array.for_all (fun x -> x >= 1) l)

let test_lut_singleton_axis () =
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let t = Nldm.build tech arc ~levels:[| 2; 2; 1 |] in
  Alcotest.(check int) "size" 4
    (Array.length t.Nldm.td * Array.length t.Nldm.td.(0)
    * Array.length t.Nldm.td.(0).(0));
  (* Constant along the singleton vdd axis. *)
  let p1 = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.7 } in
  let p2 = { p1 with Harness.vdd = 1.0 } in
  check_close ~tol:1e-18 "constant along vdd" (Nldm.lookup_td t p1)
    (Nldm.lookup_td t p2)

(* [lookup_td_sout] locates a point once for both grids.  Pinned
   bitwise against [lookup_td]/[lookup_sout] and against the trilinear
   formula written out corner by corner, on synthetic tables with
   singleton axes, at nodes, between them and outside the grid. *)
let test_lut_shared_location () =
  let reference values (t : Nldm.t) (p : Harness.point) =
    let cell axis x =
      let i = Slc_num.Interp.locate axis x in
      let axis = (axis :> float array) in
      if Array.length axis = 1 then (0, 0.0)
      else (i, (x -. axis.(i)) /. (axis.(i + 1) -. axis.(i)))
    in
    let i, tx = cell t.Nldm.sin_axis p.Harness.sin in
    let j, ty = cell t.Nldm.cload_axis p.Harness.cload in
    let k, tz = cell t.Nldm.vdd_axis p.Harness.vdd in
    let at a b c =
      (values : float array array array).(min a (Array.length (t.Nldm.sin_axis :> float array) - 1))
        .(min b (Array.length (t.Nldm.cload_axis :> float array) - 1))
        .(min c (Array.length (t.Nldm.vdd_axis :> float array) - 1))
    in
    let lerp w a b = ((1.0 -. w) *. a) +. (w *. b) in
    let c00 = lerp tx (at i j k) (at (i + 1) j k) in
    let c10 = lerp tx (at i (j + 1) k) (at (i + 1) (j + 1) k) in
    let c01 = lerp tx (at i j (k + 1)) (at (i + 1) j (k + 1)) in
    let c11 = lerp tx (at i (j + 1) (k + 1)) (at (i + 1) (j + 1) (k + 1)) in
    lerp tz (lerp ty c00 c10) (lerp ty c01 c11)
  in
  let table sin_axis cload_axis vdd_axis =
    let grid salt =
      Array.mapi
        (fun i _ ->
          Array.mapi
            (fun j _ ->
              Array.mapi
                (fun k _ ->
                  salt *. (1.0 +. (0.37 *. float_of_int i))
                  *. (1.0 +. (0.11 *. float_of_int (j * j)))
                  /. (1.0 +. (0.29 *. float_of_int k)))
                vdd_axis)
            cload_axis)
        sin_axis
    in
    let axis a = Option.get (Slc_num.Interp.axis a) in
    { Nldm.arc_name = "INV/A/fall"; sin_axis = axis sin_axis;
      cload_axis = axis cload_axis; vdd_axis = axis vdd_axis;
      td = grid 1.3e-11; sout = grid 2.1e-11; energy = grid 1e-15 }
  in
  let tables =
    [ table [| 1e-12; 4e-12; 9e-12 |] [| 1e-15; 3e-15 |] [| 0.8 |];
      table [| 5e-12 |] [| 1e-15; 2e-15; 6e-15 |] [| 0.6; 0.9 |];
      table [| 2e-12; 8e-12 |] [| 1e-15; 4e-15 |] [| 0.7; 0.8; 1.0 |] ]
  in
  let coords = [| 0.0; 1e-12; 3.3e-12; 9e-12; 2e-11 |] in
  let loads = [| 0.0; 1e-15; 2.5e-15; 7e-15 |] in
  let vdds = [| 0.5; 0.8; 0.85; 1.1 |] in
  let bits = Int64.bits_of_float in
  List.iter
    (fun t ->
      Array.iter
        (fun sin ->
          Array.iter
            (fun cload ->
              Array.iter
                (fun vdd ->
                  let p = { Harness.sin; cload; vdd } in
                  let td, sout = Nldm.lookup_td_sout t p in
                  if
                    bits td <> bits (Nldm.lookup_td t p)
                    || bits sout <> bits (Nldm.lookup_sout t p)
                    || bits td <> bits (reference t.Nldm.td t p)
                    || bits sout <> bits (reference t.Nldm.sout t p)
                  then
                    Alcotest.failf "lookup differs at (%h, %h, %h)" sin cload
                      vdd)
                vdds)
            loads)
        coords)
    tables

let test_library_characterize () =
  Harness.reset_sim_count ();
  let lib =
    Library.characterize ~cells:[ Cells.inv ] tech ~levels:[| 2; 2; 1 |]
  in
  Alcotest.(check int) "2 arcs" 2 (List.length lib.Library.entries);
  Alcotest.(check int) "cost = 2 arcs x 4 points" 8 lib.Library.sim_runs;
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let d = Helpers.library_delay lib arc mid_point in
  Alcotest.(check bool) "delay positive" true (d > 0.0);
  (match Library.find lib ~cell:"INV" ~pin:"A" ~out_dir:Arc.Rise with
  | Some _ -> ()
  | None -> Alcotest.fail "arc missing");
  Alcotest.(check bool) "summary renders" true
    (String.length (Format.asprintf "%a" Library.summary lib) > 0)

(* ------------------------------------------------------------------ *)
(* Ring oscillator *)

let test_ring_oscillates () =
  let r = Ring.simulate tech ~vdd:0.8 in
  Alcotest.(check bool) "frequency in range" true
    (r.Ring.frequency > 1e9 && r.Ring.frequency < 1e11);
  Alcotest.(check bool) "several cycles" true (r.Ring.cycles_measured >= 3)

let test_ring_stage_delay_consistent () =
  (* Stage delay is a ring-length invariant. *)
  let r5 = Ring.simulate ~stages:5 tech ~vdd:0.8 in
  let r9 = Ring.simulate ~stages:9 tech ~vdd:0.8 in
  let rel =
    Float.abs (r5.Ring.stage_delay -. r9.Ring.stage_delay)
    /. r5.Ring.stage_delay
  in
  Alcotest.(check bool)
    (Printf.sprintf "5 vs 9 stages within 10%% (got %.1f%%)" (100.0 *. rel))
    true (rel < 0.10);
  (* And matches the characterized INV delay at ring-like conditions to
     within the slew/load approximation. *)
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let load =
    Equivalent.input_cap tech Cells.inv ~pin:"A"
  in
  let m =
    Harness.simulate tech arc
      { Harness.sin = 2.0 *. r5.Ring.stage_delay; cload = load; vdd = 0.8 }
  in
  let rel2 =
    Float.abs (r5.Ring.stage_delay -. m.Harness.td) /. m.Harness.td
  in
  Alcotest.(check bool)
    (Printf.sprintf "ring vs characterized INV within 50%% (got %.0f%%)"
       (100.0 *. rel2))
    true (rel2 < 0.5)

let test_ring_slows_down () =
  let nominal = Ring.simulate tech ~vdd:0.8 in
  let low_v = Ring.simulate tech ~vdd:0.7 in
  let loaded = Ring.simulate ~extra_load:1e-15 tech ~vdd:0.8 in
  Alcotest.(check bool) "low vdd slower" true
    (low_v.Ring.period > nominal.Ring.period);
  Alcotest.(check bool) "extra load slower" true
    (loaded.Ring.period > nominal.Ring.period)

let test_ring_validation () =
  Alcotest.check_raises "even ring"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Ring.simulate" "stages must be odd and >= 3")) (fun () ->
      ignore (Ring.simulate ~stages:4 tech ~vdd:0.8));
  Alcotest.check_raises "bad vdd"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Ring.simulate" "vdd must be > 0")) (fun () ->
      ignore (Ring.simulate tech ~vdd:0.0))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_equivalent_width_positive_when_conducting =
  QCheck.Test.make ~name:"conducting network has positive width" ~count:100
    QCheck.(int_bound 7)
    (fun mask ->
      let on pin =
        match pin with
        | "A" -> mask land 1 <> 0
        | "B" -> mask land 2 <> 0
        | _ -> mask land 4 <> 0
      in
      List.for_all
        (fun cell ->
          let net = cell.Cells.pull_down in
          let w = Topology.equivalent_width_mult net ~on in
          if Topology.conducts net ~on then w > 0.0 else w = 0.0)
        Cells.all)

(* ------------------------------------------------------------------ *)
(* Batched harness: simulate_batch must be observationally identical to
   one scalar [simulate] per lane. *)

let batch_arc () = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall

let lane_fixture () =
  let rng = Rng.create 11 in
  let seeds = Process.sample_batch rng tech 2 in
  let seeds = Array.append [| Process.nominal |] seeds in
  let points =
    [|
      { Harness.sin = 3e-12; cload = 1e-15; vdd = 0.8 };
      { Harness.sin = 8e-12; cload = 4e-15; vdd = 0.7 };
    |]
  in
  Array.init
    (Array.length seeds * Array.length points)
    (fun i -> (seeds.(i / 2), points.(i mod 2)))

let check_measurement_equal l (s : Harness.measurement) = function
  | Error e ->
    Alcotest.failf "lane %d failed: %s" l (Printexc.to_string e)
  | Ok (b : Harness.measurement) ->
    check_close ~tol:0.0 (Printf.sprintf "lane %d td" l) s.Harness.td
      b.Harness.td;
    check_close ~tol:0.0 (Printf.sprintf "lane %d sout" l) s.Harness.sout
      b.Harness.sout;
    check_close ~tol:0.0 (Printf.sprintf "lane %d energy" l) s.Harness.energy
      b.Harness.energy;
    Alcotest.(check int)
      (Printf.sprintf "lane %d newton iters" l)
      s.Harness.newton_iters b.Harness.newton_iters;
    Alcotest.(check int)
      (Printf.sprintf "lane %d time steps" l)
      s.Harness.time_steps b.Harness.time_steps;
    Alcotest.(check int)
      (Printf.sprintf "lane %d retries" l)
      s.Harness.retries b.Harness.retries;
    Alcotest.(check bool)
      (Printf.sprintf "lane %d degraded" l)
      s.Harness.degraded b.Harness.degraded;
    Alcotest.(check (list string))
      (Printf.sprintf "lane %d recovery" l)
      s.Harness.recovery b.Harness.recovery

let test_simulate_batch_matches_scalar () =
  let arc = batch_arc () in
  let lanes = lane_fixture () in
  let scalar =
    Array.map (fun (seed, pt) -> Harness.simulate ~seed tech arc pt) lanes
  in
  let batch = Harness.simulate_batch tech arc lanes in
  Array.iteri (fun l r -> check_measurement_equal l scalar.(l) r) batch

let test_simulate_batch_counts () =
  (* One counted simulation per lane per attempt, in both the global
     sim counter and the telemetry stream — batching must not merge
     per-seed accounting into per-batch accounting. *)
  let arc = batch_arc () in
  let lanes = lane_fixture () in
  Harness.reset_sim_count ();
  Array.iter
    (fun (seed, pt) -> ignore (Harness.simulate ~seed tech arc pt))
    lanes;
  let scalar_sims = Harness.sim_count () in
  Harness.reset_sim_count ();
  let module T = Slc_obs.Telemetry in
  let tel_before = if T.on () then T.read T.simulations else 0 in
  ignore (Harness.simulate_batch tech arc lanes);
  Alcotest.(check int) "sim_count: one per lane" scalar_sims
    (Harness.sim_count ());
  if T.on () then
    Alcotest.(check int) "telemetry simulations: one per lane" scalar_sims
      (T.read T.simulations - tel_before)

let test_simulate_batch_fault_peel () =
  (* A fault injected into one lane must fail only that lane, with the
     scalar path's exact payload, while the other lanes complete
     undegraded and bitwise-equal to their scalar runs. *)
  let arc = batch_arc () in
  let lanes = lane_fixture () in
  let _, bad_point = lanes.(2) in
  let bad_seed, _ = lanes.(2) in
  Fun.protect
    ~finally:(fun () -> Harness.set_fault_injector None)
    (fun () ->
      let scalar =
        Array.map
          (fun (seed, pt) -> Harness.simulate ~seed tech arc pt)
          lanes
      in
      Harness.set_fault_injector
        (Some (fun seed pt -> seed == bad_seed && pt = bad_point));
      let batch = Harness.simulate_batch tech arc lanes in
      Array.iteri
        (fun l r ->
          if l = 2 then
            match r with
            | Ok _ -> Alcotest.fail "faulted lane should not succeed"
            | Error (Slc_obs.Slc_error.No_convergence d) ->
              Alcotest.(check (list string))
                "injected-fault recovery tag" [ "injected-fault" ]
                d.Slc_obs.Slc_error.recovery
            | Error e ->
              Alcotest.failf "unexpected failure: %s" (Printexc.to_string e)
          else check_measurement_equal l scalar.(l) r)
        batch)

let test_simulate_batch_invalid_lane () =
  let arc = batch_arc () in
  let lanes = lane_fixture () in
  let mixed = Array.copy lanes in
  mixed.(1) <- (Process.nominal, { mid_point with Harness.sin = 0.0 });
  let batch = Harness.simulate_batch tech arc mixed in
  (match batch.(1) with
  | Error (Slc_obs.Slc_error.Invalid_input _) -> ()
  | Error e -> Alcotest.failf "unexpected failure: %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "invalid lane should not succeed");
  Array.iteri
    (fun l r ->
      if l <> 1 then
        let seed, pt = mixed.(l) in
        check_measurement_equal l (Harness.simulate ~seed tech arc pt) r)
    batch

(* Server connection threads are systhreads sharing one domain; they
   interleave at allocation points, in the middle of a transient run.
   Every call must still return exactly the sequential result, so no
   mutable solver state may be shared between calls. *)
let test_systhreads_match_sequential () =
  let tech = Tech.n28 in
  let arc = Arc.find Cells.nand2 ~pin:"A" ~out_dir:Arc.Fall in
  let seeds = Process.sample_batch (Rng.create 5) tech 400 in
  let points =
    [|
      { Harness.sin = 6e-12; cload = 1.5e-15; vdd = 0.9 };
      { Harness.sin = 15e-12; cload = 4e-15; vdd = 0.8 };
    |]
  in
  let lanes = Array.mapi (fun i seed -> (seed, points.(i mod 2))) seeds in
  let run (seed, pt) = Harness.simulate ~seed tech arc pt in
  let reference = Array.map run lanes in
  let results = Array.make 2 [||] in
  let threads =
    List.init 2 (fun t ->
        Thread.create (fun () -> results.(t) <- Array.map run lanes) ())
  in
  List.iter Thread.join threads;
  Array.iter
    (fun got ->
      Alcotest.(check int) "thread finished" (Array.length lanes)
        (Array.length got);
      Array.iteri
        (fun l (r : Harness.measurement) ->
          check_measurement_equal l reference.(l) (Ok r))
        got)
    results

let () =
  Alcotest.run "slc_cell"
    [
      ( "topology",
        [
          Alcotest.test_case "conduction" `Quick test_conducts;
          Alcotest.test_case "equivalent widths" `Quick test_equivalent_width;
          Alcotest.test_case "validation" `Quick test_validate;
          QCheck_alcotest.to_alcotest
            prop_equivalent_width_positive_when_conducting;
        ] );
      ( "cells",
        [
          Alcotest.test_case "complementary networks" `Quick
            test_all_cells_complementary;
          Alcotest.test_case "logic truth tables" `Quick test_logic_values;
          Alcotest.test_case "lookup by name" `Quick test_by_name;
          Alcotest.test_case "4-input cells" `Quick test_four_input_cells;
        ] );
      ( "arc",
        [
          Alcotest.test_case "arc counts" `Quick test_arc_counts;
          Alcotest.test_case "non-controlling side values" `Quick
            test_arc_side_values;
          Alcotest.test_case "direction semantics" `Quick
            test_arc_direction_semantics;
          Alcotest.test_case "unknown pin" `Quick test_arc_unknown_pin;
          Alcotest.test_case "naming" `Quick test_arc_name;
        ] );
      ( "equivalent",
        [
          Alcotest.test_case "inverter widths" `Quick
            test_equivalent_inverter_widths;
          Alcotest.test_case "stack factor derates" `Quick
            test_stack_factor_derates;
          Alcotest.test_case "seed shifts ieff" `Quick test_ieff_with_seed_shifts;
          Alcotest.test_case "input cap closed form" `Quick
            test_input_cap_closed_form;
          Alcotest.test_case "library missing arc" `Quick
            test_library_missing_arc_raises;
        ] );
      ( "harness",
        [
          Alcotest.test_case "all sampled cells simulate" `Slow
            test_simulate_all_cells_mid_point;
          Alcotest.test_case "delay monotone in cload" `Quick
            test_delay_monotone_in_cload;
          Alcotest.test_case "delay decreases with vdd" `Quick
            test_delay_decreases_with_vdd;
          Alcotest.test_case "delay increases with sin" `Quick
            test_delay_increases_with_sin;
          Alcotest.test_case "cached simulate = uncached reference" `Slow
            test_simulate_matches_uncached_reference;
          Alcotest.test_case "seed changes delay" `Quick test_seed_changes_delay;
          Alcotest.test_case "deterministic" `Quick test_simulation_deterministic;
          Alcotest.test_case "sim counter" `Quick test_sim_counter;
          Alcotest.test_case "invalid point" `Quick test_invalid_point_rejected;
          Alcotest.test_case "point/vec roundtrip" `Quick
            test_point_vec_roundtrip;
          Alcotest.test_case "switching energy physics" `Quick
            test_energy_physics;
          Alcotest.test_case "energy grows with vdd" `Quick
            test_energy_grows_with_vdd;
          Alcotest.test_case "PVT corner ordering" `Quick test_pvt_ordering;
          Alcotest.test_case "two systhreads = sequential (bitwise)" `Quick
            test_systhreads_match_sequential;
        ] );
      ( "batch harness",
        [
          Alcotest.test_case "simulate_batch = scalar simulate" `Quick
            test_simulate_batch_matches_scalar;
          Alcotest.test_case "one counted sim per lane" `Quick
            test_simulate_batch_counts;
          Alcotest.test_case "injected fault peels one lane" `Quick
            test_simulate_batch_fault_peel;
          Alcotest.test_case "invalid lane among valid" `Quick
            test_simulate_batch_invalid_lane;
        ] );
      ( "ring",
        [
          Alcotest.test_case "oscillates" `Quick test_ring_oscillates;
          Alcotest.test_case "stage delay consistent" `Slow
            test_ring_stage_delay_consistent;
          Alcotest.test_case "slows with vdd and load" `Slow
            test_ring_slows_down;
          Alcotest.test_case "validation" `Quick test_ring_validation;
        ] );
      ( "nldm",
        [
          Alcotest.test_case "design levels" `Quick test_design_levels;
          Alcotest.test_case "exact at grid nodes" `Quick
            test_lut_exact_at_grid_points;
          Alcotest.test_case "interpolates between" `Quick
            test_lut_interpolates_between;
          Alcotest.test_case "singleton axis" `Quick test_lut_singleton_axis;
          Alcotest.test_case "energy table" `Quick test_lut_energy_lookup;
          Alcotest.test_case "shared location (bitwise)" `Quick
            test_lut_shared_location;
          QCheck_alcotest.to_alcotest prop_design_levels_budget;
          Alcotest.test_case "library characterization" `Quick
            test_library_characterize;
        ] );
    ]
