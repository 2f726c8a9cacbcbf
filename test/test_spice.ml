(* Tests for the transient circuit simulator: stimuli, netlists,
   waveform measurement, and the solver validated against analytic RC
   responses and inverter behaviour. *)

open Slc_spice
module Mosfet = Slc_device.Mosfet
module Tech = Slc_device.Tech

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Stimulus *)

let test_ramp () =
  let r = Stimulus.ramp ~t0:1.0 ~duration:2.0 ~v_from:0.0 ~v_to:1.0 in
  check_close "before" 0.0 (r 0.5);
  check_close "start" 0.0 (r 1.0);
  check_close "mid" 0.5 (r 2.0);
  check_close "end" 1.0 (r 3.0);
  check_close "after" 1.0 (r 10.0);
  Alcotest.check_raises "bad duration"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Stimulus.ramp" "duration must be > 0")) (fun () ->
      ignore (Stimulus.ramp ~t0:0.0 ~duration:0.0 ~v_from:0.0 ~v_to:1.0 : Stimulus.t))

let test_pwl () =
  let w = Stimulus.pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 0.0) ] in
  check_close "interp 1" 1.0 (w 0.5);
  check_close "interp 2" 1.0 (w 2.0);
  check_close "clamp left" 0.0 (w (-1.0));
  check_close "clamp right" 0.0 (w 9.0);
  Alcotest.check_raises "non-increasing"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Stimulus.pwl" "times must increase")) (fun () ->
      ignore (Stimulus.pwl [ (0.0, 0.0); (0.0, 1.0) ] : Stimulus.t))

(* ------------------------------------------------------------------ *)
(* Netlist *)

let test_netlist_building () =
  let net = Netlist.create () in
  let a = Netlist.fresh_node net "a" in
  let b = Netlist.fresh_node net "b" in
  Netlist.add_resistor net 1e3 ~a ~b;
  Netlist.add_capacitor net 1e-15 ~a:b ~b:Netlist.ground;
  Netlist.add_vsource net (Stimulus.dc 1.0) a;
  Alcotest.(check int) "nodes" 3 (Netlist.node_count net);
  Alcotest.(check bool) "pinned" true (Netlist.pinned net a);
  Alcotest.(check bool) "free" false (Netlist.pinned net b);
  Netlist.validate net

let test_netlist_rejects () =
  let net = Netlist.create () in
  let a = Netlist.fresh_node net "a" in
  Alcotest.check_raises "zero R"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Netlist.add_resistor" "resistance must be > 0"))
    (fun () -> Netlist.add_resistor net 0.0 ~a ~b:Netlist.ground);
  Alcotest.check_raises "negative C"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Netlist.add_capacitor" "negative capacitance"))
    (fun () -> Netlist.add_capacitor net (-1.0) ~a ~b:Netlist.ground);
  Alcotest.check_raises "drive ground"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Netlist.add_vsource" "cannot drive ground")) (fun () ->
      Netlist.add_vsource net (Stimulus.dc 1.0) Netlist.ground);
  Netlist.add_vsource net (Stimulus.dc 1.0) a;
  Alcotest.check_raises "double pin"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Netlist.add_vsource" "node already pinned")) (fun () ->
      Netlist.add_vsource net (Stimulus.dc 2.0) a)

(* ------------------------------------------------------------------ *)
(* Waveform *)

let ramp_waveform () =
  let times = Slc_num.Vec.linspace 0.0 10.0 101 in
  let values = Array.map (fun t -> Float.min 1.0 (t /. 5.0)) times in
  Waveform.make ~times ~values

let test_waveform_crossings () =
  let w = ramp_waveform () in
  (match Waveform.cross_time w Waveform.Rising 0.5 with
  | Some t -> check_close ~tol:1e-9 "50% crossing" 2.5 t
  | None -> Alcotest.fail "expected crossing");
  Alcotest.(check bool) "no falling crossing" true
    (Waveform.cross_time w Waveform.Falling 0.5 = None)

let test_waveform_slew_of_linear_ramp () =
  (* By convention the 20-80 slew of a full-swing linear ramp equals
     the total ramp time. *)
  let w = ramp_waveform () in
  match Waveform.measure_slew w ~vdd:1.0 Waveform.Rising with
  | Some s -> check_close ~tol:1e-6 "slew = ramp duration" 5.0 s
  | None -> Alcotest.fail "expected slew"

let test_waveform_delay () =
  let times = Slc_num.Vec.linspace 0.0 10.0 201 in
  let input = Array.map (fun t -> Float.min 1.0 (Float.max 0.0 (t -. 1.0))) times in
  let output =
    Array.map (fun t -> 1.0 -. Float.min 1.0 (Float.max 0.0 ((t -. 3.0) /. 2.0))) times
  in
  let win = Waveform.make ~times ~values:input in
  let wout = Waveform.make ~times ~values:output in
  match Waveform.measure_delay ~input:win ~output:wout ~vdd:1.0 ~out_dir:Waveform.Falling with
  | Some d -> check_close ~tol:1e-9 "50-50 delay" 2.5 d
  | None -> Alcotest.fail "expected delay"

let test_waveform_value_at () =
  let w = ramp_waveform () in
  check_close ~tol:1e-9 "interior" 0.2 (Waveform.value_at w 1.0);
  check_close ~tol:1e-9 "clamped left" 0.0 (Waveform.value_at w (-5.0));
  check_close ~tol:1e-9 "clamped right" 1.0 (Waveform.value_at w 50.0)

let test_cross_time_after_skips () =
  (* A wave crossing the level twice: ~after selects the second. *)
  let times = Slc_num.Vec.linspace 0.0 10.0 101 in
  let values =
    Array.map
      (fun t -> if t < 3.0 then t /. 3.0 else if t < 6.0 then (6.0 -. t) /. 3.0
                else (t -. 6.0) /. 4.0)
      times
  in
  let w = Waveform.make ~times ~values in
  (match Waveform.cross_time w Waveform.Rising 0.5 with
  | Some t -> Alcotest.(check (float 0.2)) "first rise" 1.5 t
  | None -> Alcotest.fail "expected first crossing");
  match Waveform.cross_time w ~after:4.0 Waveform.Rising 0.5 with
  | Some t -> Alcotest.(check (float 0.2)) "second rise" 8.0 t
  | None -> Alcotest.fail "expected second crossing"

let test_waveform_validation () =
  Alcotest.check_raises "length mismatch"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Waveform.make" "length mismatch")) (fun () ->
      ignore (Waveform.make ~times:[| 0.0; 1.0 |] ~values:[| 0.0 |]));
  Alcotest.check_raises "non-increasing"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Waveform.make" "times must be strictly increasing"))
    (fun () ->
      ignore (Waveform.make ~times:[| 0.0; 0.0 |] ~values:[| 0.0; 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Transient solver vs analytic RC *)

let rc_netlist ~r ~c ~stim =
  let net = Netlist.create () in
  let nin = Netlist.fresh_node net "in" in
  let nout = Netlist.fresh_node net "out" in
  Netlist.add_vsource net stim nin;
  Netlist.add_resistor net r ~a:nin ~b:nout;
  Netlist.add_capacitor net c ~a:nout ~b:Netlist.ground;
  (net, nout)

let test_rc_step_response () =
  (* v(t) = 1 - exp(-t/RC) after a (fast-ramp) step. *)
  let r = 1e3 and c = 1e-15 in
  let tau = r *. c in
  let stim = Stimulus.ramp ~t0:(tau /. 100.0) ~duration:(tau /. 100.0) ~v_from:0.0 ~v_to:1.0 in
  let net, nout = rc_netlist ~r ~c ~stim in
  let opts =
    { (Transient.default_options ~tstop:(6.0 *. tau)) with
      dt_max = tau /. 50.0; dt_init = tau /. 200.0 }
  in
  let res = Transient.run opts net in
  let w = Transient.waveform res nout in
  List.iter
    (fun mult ->
      let t = mult *. tau in
      let expected = 1.0 -. exp (-.(t -. 0.02 *. tau) /. tau) in
      let actual = Waveform.value_at w t in
      Alcotest.(check bool)
        (Printf.sprintf "v(%.1f tau)" mult)
        true
        (Float.abs (actual -. expected) < 0.02))
    [ 1.0; 2.0; 3.0; 5.0 ]

let test_rc_divider_dc () =
  (* Two resistors divide the source voltage at DC. *)
  let net = Netlist.create () in
  let nin = Netlist.fresh_node net "in" in
  let mid = Netlist.fresh_node net "mid" in
  Netlist.add_vsource net (Stimulus.dc 2.0) nin;
  Netlist.add_resistor net 1e3 ~a:nin ~b:mid;
  Netlist.add_resistor net 3e3 ~a:mid ~b:Netlist.ground;
  let v = Transient.dc_operating_point net ~at:0.0 in
  check_close ~tol:1e-6 "divider" 1.5 v.(mid)

let inverter_netlist tech vdd =
  let net = Netlist.create () in
  let nvdd = Netlist.fresh_node net "vdd" in
  let nin = Netlist.fresh_node net "in" in
  let nout = Netlist.fresh_node net "out" in
  Netlist.add_vsource net (Stimulus.dc vdd) nvdd;
  Netlist.add_mosfet net tech.Tech.nmos ~g:nin ~d:nout ~s:Netlist.ground;
  Netlist.add_mosfet net
    (Mosfet.scale_width tech.Tech.pmos 2.0)
    ~g:nin ~d:nout ~s:nvdd;
  Netlist.add_capacitor net 2e-15 ~a:nout ~b:Netlist.ground;
  (net, nin, nout)

let test_inverter_dc_rails () =
  let tech = Tech.n14 in
  let vdd = 0.8 in
  let net, nin, nout = inverter_netlist tech vdd in
  Netlist.add_vsource net (Stimulus.dc 0.0) nin;
  let v = Transient.dc_operating_point net ~at:0.0 in
  Alcotest.(check bool) "input low -> out high" true (v.(nout) > 0.98 *. vdd);
  let net2, nin2, nout2 = inverter_netlist tech vdd in
  Netlist.add_vsource net2 (Stimulus.dc vdd) nin2;
  let v2 = Transient.dc_operating_point net2 ~at:0.0 in
  Alcotest.(check bool) "input high -> out low" true (v2.(nout2) < 0.02 *. vdd)

let test_inverter_transition () =
  let tech = Tech.n14 in
  let vdd = 0.8 in
  let net, nin, nout = inverter_netlist tech vdd in
  Netlist.add_vsource net
    (Stimulus.ramp ~t0:2e-12 ~duration:5e-12 ~v_from:0.0 ~v_to:vdd)
    nin;
  let opts =
    { (Transient.default_options ~tstop:60e-12) with
      breakpoints = Stimulus.breakpoints ~t0:2e-12 ~duration:5e-12 }
  in
  let res = Transient.run opts net in
  let wout = Transient.waveform res nout in
  Alcotest.(check bool) "starts high" true
    (wout.Waveform.values.(0) > 0.95 *. vdd);
  Alcotest.(check bool) "ends low" true
    (Waveform.final_value wout < 0.05 *. vdd);
  Alcotest.(check bool) "some steps" true (Transient.steps_taken res > 20)

let test_charge_conservation_rc () =
  (* With no source transition the circuit stays at its DC point. *)
  let net, nout = rc_netlist ~r:1e3 ~c:1e-15 ~stim:(Stimulus.dc 1.0) in
  let opts = Transient.default_options ~tstop:1e-11 in
  let res = Transient.run opts net in
  let w = Transient.waveform res nout in
  Array.iter
    (fun v -> Alcotest.(check bool) "stays at 1V" true (Float.abs (v -. 1.0) < 1e-6))
    w.Waveform.values

let test_breakpoints_hit () =
  let stim = Stimulus.ramp ~t0:1e-12 ~duration:2e-12 ~v_from:0.0 ~v_to:1.0 in
  let net, nout = rc_netlist ~r:1e3 ~c:1e-15 ~stim in
  let opts =
    { (Transient.default_options ~tstop:1e-11) with
      breakpoints = Stimulus.breakpoints ~t0:1e-12 ~duration:2e-12 }
  in
  let res = Transient.run opts net in
  let times = ((Transient.waveform res nout).Waveform.times :> float array) in
  let has t0 =
    Array.exists (fun t -> Float.abs (t -. t0) < 1e-18) times
  in
  Alcotest.(check bool) "ramp start on grid" true (has 1e-12);
  Alcotest.(check bool) "ramp end on grid" true (has 3e-12)

let test_invalid_options () =
  let net, _ = rc_netlist ~r:1e3 ~c:1e-15 ~stim:(Stimulus.dc 1.0) in
  Alcotest.check_raises "tstop <= 0"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Transient.default_options" "tstop <= 0")) (fun () ->
      ignore (Transient.run (Transient.default_options ~tstop:0.0) net))

let test_trapezoidal_more_accurate () =
  (* Same coarse step: trapezoidal should not be worse than backward
     Euler on the smooth part of an RC response. *)
  let r = 1e3 and c = 1e-15 in
  let tau = r *. c in
  let stim =
    Stimulus.ramp ~t0:(tau /. 100.0) ~duration:(tau /. 100.0) ~v_from:0.0
      ~v_to:1.0
  in
  let err integrator =
    let net, nout = rc_netlist ~r ~c ~stim in
    let opts =
      {
        (Transient.default_options ~tstop:(5.0 *. tau)) with
        Transient.integrator;
        dt_max = tau /. 10.0;
        dt_init = tau /. 10.0;
      }
    in
    let w = Transient.waveform (Transient.run opts net) nout in
    List.fold_left
      (fun acc m ->
        let t = m *. tau in
        let exact = 1.0 -. exp (-.(t -. 0.02 *. tau) /. tau) in
        Float.max acc (Float.abs (Waveform.value_at w t -. exact)))
      0.0
      [ 1.0; 2.0; 3.0 ]
  in
  let e_be = err Transient.Backward_euler in
  let e_tr = err Transient.Trapezoidal in
  Alcotest.(check bool)
    (Printf.sprintf "TR (%.4f) <= BE (%.4f)" e_tr e_be)
    true (e_tr <= e_be +. 1e-6)

let test_dc_sweep_inverter_vtc () =
  let tech = Tech.n14 in
  let vdd = 0.8 in
  let vins = Slc_num.Vec.linspace 0.0 vdd 17 in
  (* One operating point per input value, each on a fresh netlist. *)
  let sols =
    Array.map
      (fun vin ->
        let net, nin, _ = inverter_netlist tech vdd in
        Netlist.add_vsource net (Stimulus.dc vin) nin;
        Transient.dc_operating_point net ~at:0.0)
      vins
  in
  let _, _, nout = inverter_netlist tech vdd in
  Alcotest.(check int) "one solution per point" 17 (Array.length sols);
  (* Rails at the ends... *)
  Alcotest.(check bool) "out high at vin=0" true (sols.(0).(nout) > 0.98 *. vdd);
  Alcotest.(check bool) "out low at vin=vdd" true
    (sols.(16).(nout) < 0.02 *. vdd);
  (* ...and monotone non-increasing in between. *)
  for i = 0 to 15 do
    Alcotest.(check bool) "monotone" true
      (sols.(i + 1).(nout) <= sols.(i).(nout) +. 1e-6)
  done;
  (* The switching threshold sits mid-rail-ish. *)
  let vm =
    let rec find i =
      if i >= 17 then vdd
      else if sols.(i).(nout) < 0.5 *. vdd then vins.(i)
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "threshold near mid rail" true
    (vm > 0.25 *. vdd && vm < 0.75 *. vdd)

let test_rc_ladder_matches_expm () =
  (* A 4-node RC ladder driven by a fast step, checked against the
     exact linear response computed with the matrix exponential:
     C dv/dt = -G v + G e1 Vin, v(t) = v_inf + expm(-C^-1 G t)(v0-v_inf). *)
  let module MatM = Slc_num.Mat in
  let rng = Slc_prob.Rng.create 91 in
  for trial = 0 to 2 do
    ignore trial;
    let n = 4 in
    let rs = Array.init n (fun _ -> Slc_prob.Rng.uniform rng ~lo:500.0 ~hi:2000.0) in
    let cs = Array.init n (fun _ -> Slc_prob.Rng.uniform rng ~lo:0.5e-15 ~hi:2e-15) in
    let vin = 1.0 in
    (* Build the netlist: in - R0 - n1 - R1 - n2 - ... each ni has Ci
       to ground. *)
    let net = Netlist.create () in
    let nin = Netlist.fresh_node net "in" in
    let nodes = Array.init n (fun i -> Netlist.fresh_node net (Printf.sprintf "n%d" i)) in
    let tau0 = rs.(0) *. cs.(0) in
    let t_step = tau0 /. 200.0 in
    Netlist.add_vsource net
      (Stimulus.ramp ~t0:t_step ~duration:t_step ~v_from:0.0 ~v_to:vin) nin;
    for i = 0 to n - 1 do
      let prev = if i = 0 then nin else nodes.(i - 1) in
      Netlist.add_resistor net rs.(i) ~a:prev ~b:nodes.(i);
      Netlist.add_capacitor net cs.(i) ~a:nodes.(i) ~b:Netlist.ground
    done;
    (* Conductance matrix over the free nodes. *)
    let g = MatM.create n n in
    for i = 0 to n - 1 do
      let gi = 1.0 /. rs.(i) in
      MatM.set g i i (MatM.get g i i +. gi);
      if i > 0 then begin
        MatM.set g (i - 1) (i - 1) (MatM.get g (i - 1) (i - 1) +. gi);
        MatM.set g i (i - 1) (-.gi);
        MatM.set g (i - 1) i (-.gi)
      end
    done;
    let a = MatM.init n n (fun i j -> -.(MatM.get g i j) /. cs.(i)) in
    (* Steady state: all nodes at vin. *)
    let total_tau =
      Array.fold_left ( +. ) 0.0 (Array.mapi (fun i c -> rs.(i) *. c) cs)
    in
    let tstop = 10.0 *. total_tau in
    let opts =
      { (Transient.default_options ~tstop) with
        dt_max = total_tau /. 50.0 }
    in
    let res = Transient.run opts net in
    List.iter
      (fun frac ->
        let t = frac *. total_tau in
        (* Exact solution with the ramp midpoint as time origin. *)
        let e = Slc_num.Linalg.expm (MatM.scale (t -. (1.5 *. t_step)) a) in
        for i = 0 to n - 1 do
          let exact =
            vin
            +. Array.fold_left ( +. ) 0.0
                 (Array.init n (fun j -> MatM.get e i j *. (0.0 -. vin)))
          in
          let w = Transient.waveform res nodes.(i) in
          let sim = Waveform.value_at w t in
          Alcotest.(check bool)
            (Printf.sprintf "node %d at %.1f tau (exact %.4f, sim %.4f)" i
               frac exact sim)
            true
            (Float.abs (sim -. exact) < 0.02)
        done)
      [ 0.5; 1.0; 2.0; 4.0 ]
  done

(* ------------------------------------------------------------------ *)
(* Fault handling: typed failures and the recovery escalation ladder. *)

let test_recovery_ladder () =
  (* Tolerances no Newton solve can meet: the plain run must raise the
     typed convergence failure, and the escalation ladder must rescue
     the run at its relaxed-tolerance rung with the degraded flag. *)
  let tech = Tech.n14 in
  let vdd = 0.8 in
  let net, nin, nout = inverter_netlist tech vdd in
  Netlist.add_vsource net
    (Stimulus.ramp ~t0:2e-12 ~duration:5e-12 ~v_from:0.0 ~v_to:vdd)
    nin;
  let opts =
    {
      (Transient.default_options ~tstop:60e-12) with
      abstol = 1e-30;
      dxtol = 1e-30;
      breakpoints = Stimulus.breakpoints ~t0:2e-12 ~duration:5e-12;
    }
  in
  let c = Transient.compile net in
  (match Transient.run_recovered ~max_recovery:0 opts c with
  | _ -> Alcotest.fail "expected No_convergence at abstol = 1e-30"
  | exception Slc_obs.Slc_error.No_convergence d ->
    Alcotest.(check bool)
      "diagnostic has finite residual" true
      (Float.is_finite d.Slc_obs.Slc_error.residual);
    Alcotest.(check bool)
      "diagnostic counted Newton iterations" true
      (d.Slc_obs.Slc_error.newton_iters > 0));
  let res = Transient.run_recovered opts c in
  Alcotest.(check bool) "rescued run is degraded" true
    (Transient.degraded res);
  Alcotest.(check bool) "relaxed-tol rung reached" true
    (List.mem "relaxed-tol" (Transient.recovery_log res));
  let wout = Transient.waveform res nout in
  Alcotest.(check bool) "rescued waveform still falls" true
    (Waveform.final_value wout < 0.05 *. vdd)

let test_recovery_exhaustion_reports_rungs () =
  (* No rung changes the Newton iteration budget, so a zero budget
     fails at every rung: the ladder must give up and re-raise the
     ORIGINAL failure annotated with every rung it tried. *)
  let tech = Tech.n14 in
  let vdd = 0.8 in
  let net, nin, _ = inverter_netlist tech vdd in
  Netlist.add_vsource net
    (Stimulus.ramp ~t0:2e-12 ~duration:5e-12 ~v_from:0.0 ~v_to:vdd)
    nin;
  let opts =
    { (Transient.default_options ~tstop:60e-12) with max_newton = 0 }
  in
  let c = Transient.compile net in
  match Transient.run_recovered opts c with
  | _ -> Alcotest.fail "expected exhaustion"
  | exception Slc_obs.Slc_error.No_convergence d ->
    List.iter
      (fun rung ->
        Alcotest.(check bool)
          (Printf.sprintf "rung %s recorded" rung)
          true
          (List.mem rung d.Slc_obs.Slc_error.recovery))
      [ "tight-step"; "gmin-boost"; "relaxed-tol" ]

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_rc_monotone_rise =
  QCheck.Test.make ~name:"RC step response rises monotonically" ~count:20
    QCheck.(float_range 0.5 5.0)
    (fun rk ->
      let r = rk *. 1e3 and c = 1e-15 in
      let tau = r *. c in
      let stim =
        Stimulus.ramp ~t0:(tau /. 50.0) ~duration:(tau /. 50.0) ~v_from:0.0
          ~v_to:1.0
      in
      let net, nout = rc_netlist ~r ~c ~stim in
      let res = Transient.run (Transient.default_options ~tstop:(5.0 *. tau)) net in
      let w = Transient.waveform res nout in
      let ok = ref true in
      for i = 0 to Array.length w.Waveform.values - 2 do
        if w.Waveform.values.(i + 1) < w.Waveform.values.(i) -. 1e-9 then
          ok := false
      done;
      !ok)

let () =
  Alcotest.run "slc_spice"
    [
      ( "stimulus",
        [
          Alcotest.test_case "ramp" `Quick test_ramp;
          Alcotest.test_case "pwl" `Quick test_pwl;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "building" `Quick test_netlist_building;
          Alcotest.test_case "rejects invalid elements" `Quick
            test_netlist_rejects;
        ] );
      ( "waveform",
        [
          Alcotest.test_case "crossings" `Quick test_waveform_crossings;
          Alcotest.test_case "slew of linear ramp" `Quick
            test_waveform_slew_of_linear_ramp;
          Alcotest.test_case "delay measurement" `Quick test_waveform_delay;
          Alcotest.test_case "value_at" `Quick test_waveform_value_at;
          Alcotest.test_case "validation" `Quick test_waveform_validation;
          Alcotest.test_case "after-crossing skip" `Quick
            test_cross_time_after_skips;
        ] );
      ( "transient",
        [
          Alcotest.test_case "RC step matches analytic" `Quick
            test_rc_step_response;
          Alcotest.test_case "resistive divider DC" `Quick test_rc_divider_dc;
          Alcotest.test_case "inverter DC rails" `Quick test_inverter_dc_rails;
          Alcotest.test_case "inverter transition" `Quick
            test_inverter_transition;
          Alcotest.test_case "quiescent circuit stays put" `Quick
            test_charge_conservation_rc;
          Alcotest.test_case "breakpoints on grid" `Quick test_breakpoints_hit;
          Alcotest.test_case "invalid options" `Quick test_invalid_options;
          Alcotest.test_case "trapezoidal accuracy" `Quick
            test_trapezoidal_more_accurate;
          Alcotest.test_case "dc sweep VTC" `Quick test_dc_sweep_inverter_vtc;
          Alcotest.test_case "RC ladder matches matrix exponential" `Quick
            test_rc_ladder_matches_expm;
          QCheck_alcotest.to_alcotest prop_rc_monotone_rise;
        ] );
      ( "fault handling",
        [
          Alcotest.test_case "recovery ladder rescues" `Quick
            test_recovery_ladder;
          Alcotest.test_case "recovery exhaustion reports rungs" `Quick
            test_recovery_exhaustion_reports_rungs;
        ] );
    ]
