(* Tests for sequential-cell (DFF) characterization. *)

module Tech = Slc_device.Tech
open Slc_cell

let tech = Tech.n14

let vdd = 0.8

let test_capture_with_early_data () =
  let r = Seq.simulate_capture_gen tech ~vdd ~data_rises:true ~d_to_clk:40e-12 in
  Alcotest.(check bool) "captured" true r.Seq.captured;
  Alcotest.(check bool) "q at rail" true (r.Seq.q_final > 0.95 *. vdd);
  match r.Seq.clk_to_q with
  | Some d ->
    Alcotest.(check bool)
      (Printf.sprintf "clk-to-q plausible (%.1f ps)" (d *. 1e12))
      true
      (d > 5e-12 && d < 8e-11)
  | None -> Alcotest.fail "expected a clk-to-q delay"

let test_capture_fails_with_late_data () =
  let r = Seq.simulate_capture_gen tech ~vdd ~data_rises:true ~d_to_clk:(-10e-12) in
  Alcotest.(check bool) "not captured" false r.Seq.captured;
  Alcotest.(check bool) "q stays low" true (r.Seq.q_final < 0.05 *. vdd)

let test_capture_falling_data () =
  let r = Seq.simulate_capture_gen tech ~vdd ~data_rises:false ~d_to_clk:40e-12 in
  Alcotest.(check bool) "captured zero" true r.Seq.captured;
  Alcotest.(check bool) "q low" true (r.Seq.q_final < 0.15 *. vdd)

let test_setup_time_properties () =
  let ts = Seq.setup_time ~resolution:2e-13 tech ~vdd ~data_rises:true in
  Alcotest.(check bool)
    (Printf.sprintf "setup positive and small (%.2f ps)" (ts *. 1e12))
    true
    (ts > 0.0 && ts < 2e-11);
  (* Verification at the boundary: a bit more margin captures, a bit
     less fails. *)
  Alcotest.(check bool) "captures just above" true
    (Seq.simulate_capture_gen tech ~vdd ~data_rises:true ~d_to_clk:(ts +. 1e-12)).Seq.captured;
  Alcotest.(check bool) "fails just below" false
    (Seq.simulate_capture_gen tech ~vdd ~data_rises:true ~d_to_clk:(ts -. 1e-12)).Seq.captured

let test_setup_grows_at_low_vdd () =
  let nominal = Seq.setup_time ~resolution:2e-13 tech ~vdd ~data_rises:true in
  let low = Seq.setup_time ~resolution:2e-13 tech ~vdd:0.68 ~data_rises:true in
  Alcotest.(check bool)
    (Printf.sprintf "low vdd slower (%.2f vs %.2f ps)" (low *. 1e12)
       (nominal *. 1e12))
    true (low > nominal)

let test_hold_time () =
  let h = Seq.hold_time ~resolution:2e-13 tech ~vdd ~data_rises:true in
  Alcotest.(check bool)
    (Printf.sprintf "hold in a sane window (%.2f ps)" (h *. 1e12))
    true
    (h > -1.5e-11 && h < 2e-11);
  (* Setup and hold are measured under different arrival conditions
     (hold uses a very early data arrival), so the sum is not
     constrained; but the hold boundary must be real: holding a little
     longer captures, releasing a little earlier fails. *)
  Alcotest.(check bool) "captures just above" true
    (Seq.simulate_capture_gen ~d_revert:(h +. 1e-12) tech ~vdd
       ~data_rises:true ~d_to_clk:30e-12)
      .Seq.captured;
  Alcotest.(check bool) "fails just below" false
    (Seq.simulate_capture_gen ~d_revert:(h -. 1e-12) tech ~vdd
       ~data_rises:true ~d_to_clk:30e-12)
      .Seq.captured

let test_input_validation () =
  Alcotest.check_raises "bad vdd"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Seq.simulate_capture" "vdd must be > 0")) (fun () ->
      ignore (Seq.simulate_capture_gen tech ~vdd:0.0 ~data_rises:true ~d_to_clk:0.0));
  Alcotest.check_raises "data before priming pulse"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Seq.simulate_capture" "data edge would precede the priming pulse"))
    (fun () ->
      ignore
        (Seq.simulate_capture_gen tech ~vdd ~data_rises:true ~d_to_clk:60e-12))

let () =
  Alcotest.run "seq"
    [
      ( "dff",
        [
          Alcotest.test_case "captures early data" `Quick
            test_capture_with_early_data;
          Alcotest.test_case "misses late data" `Quick
            test_capture_fails_with_late_data;
          Alcotest.test_case "captures falling data" `Quick
            test_capture_falling_data;
          Alcotest.test_case "setup time boundary" `Slow
            test_setup_time_properties;
          Alcotest.test_case "setup grows at low vdd" `Slow
            test_setup_grows_at_low_vdd;
          Alcotest.test_case "hold time" `Slow test_hold_time;
          Alcotest.test_case "input validation" `Quick test_input_validation;
        ] );
    ]
