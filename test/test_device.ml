(* Tests for the compact MOSFET model, technology cards and process
   variation. *)

open Slc_device
module Rng = Slc_prob.Rng

let nmos = Tech.n14.Tech.nmos

let pmos = Tech.n14.Tech.pmos

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Mosfet *)

let test_current_off_state () =
  (* Gate well below threshold: current is orders below on-current. *)
  let off = Mosfet.channel_current nmos ~vgs:0.0 ~vds:0.8 in
  let on = Mosfet.channel_current nmos ~vgs:0.8 ~vds:0.8 in
  Alcotest.(check bool) "off current tiny" true (off < 1e-4 *. on);
  Alcotest.(check bool) "off current positive" true (off > 0.0)

let test_current_monotone_vgs () =
  let prev = ref (-1.0) in
  for i = 0 to 40 do
    let vgs = 0.02 *. float_of_int i in
    let id = Mosfet.channel_current nmos ~vgs ~vds:0.8 in
    Alcotest.(check bool) "increasing in vgs" true (id > !prev);
    prev := id
  done

let test_current_monotone_vds () =
  let prev = ref (-1.0) in
  for i = 0 to 40 do
    let vds = 0.02 *. float_of_int i in
    let id = Mosfet.channel_current nmos ~vgs:0.8 ~vds in
    Alcotest.(check bool) "increasing in vds" true (id > !prev);
    prev := id
  done

let test_zero_vds_zero_current () =
  check_close ~tol:1e-18 "Id(vds=0) = 0"
    0.0
    (Mosfet.channel_current nmos ~vgs:0.8 ~vds:0.0)

let test_eval_derivatives_match_fd () =
  (* Analytic partials vs central differences at several biases,
     including a swapped (vd < vs) case. *)
  let h = 1e-6 in
  let biases =
    [ (0.8, 0.4, 0.0); (0.4, 0.8, 0.0); (0.6, 0.1, 0.3); (0.7, 0.2, 0.5) ]
  in
  List.iter
    (fun (vg, vd, vs) ->
      let e = Mosfet.eval nmos ~vg ~vd ~vs in
      let fd f =
        let p = f h and m = f (-.h) in
        (p -. m) /. (2.0 *. h)
      in
      let dg = fd (fun d -> (Mosfet.eval nmos ~vg:(vg +. d) ~vd ~vs).Mosfet.id) in
      let dd = fd (fun d -> (Mosfet.eval nmos ~vg ~vd:(vd +. d) ~vs).Mosfet.id) in
      let ds = fd (fun d -> (Mosfet.eval nmos ~vg ~vd ~vs:(vs +. d)).Mosfet.id) in
      let scale = Float.max 1e-9 (Float.abs e.Mosfet.id) in
      let ok a b = Float.abs (a -. b) < 1e-3 *. Float.max scale (Float.abs b) in
      Alcotest.(check bool) "d_vg" true (ok e.Mosfet.d_vg dg);
      Alcotest.(check bool) "d_vd" true (ok e.Mosfet.d_vd dd);
      Alcotest.(check bool) "d_vs" true (ok e.Mosfet.d_vs ds))
    biases

let test_source_drain_symmetry () =
  (* Swapping drain and source negates the terminal current. *)
  let e1 = Mosfet.eval nmos ~vg:0.6 ~vd:0.5 ~vs:0.1 in
  let e2 = Mosfet.eval nmos ~vg:0.6 ~vd:0.1 ~vs:0.5 in
  check_close ~tol:1e-12 "antisymmetric" (-.e1.Mosfet.id) e2.Mosfet.id

let test_continuity_across_vds_zero () =
  let before = (Mosfet.eval nmos ~vg:0.6 ~vd:(-1e-9) ~vs:0.0).Mosfet.id in
  let after = (Mosfet.eval nmos ~vg:0.6 ~vd:1e-9 ~vs:0.0).Mosfet.id in
  Alcotest.(check bool) "continuous at vds=0" true
    (Float.abs (before -. after) < 1e-12)

let test_pmos_mirror () =
  (* A PMOS with source at vdd and gate low conducts "upward": current
     into the drain is negative (flows out of the drain node into the
     device towards the load means charging => current enters the
     drain from the device). *)
  let vdd = 0.8 in
  let e = Mosfet.eval pmos ~vg:0.0 ~vd:0.0 ~vs:vdd in
  Alcotest.(check bool) "pmos pulls up" true (e.Mosfet.id < 0.0);
  let off = Mosfet.eval pmos ~vg:vdd ~vd:0.0 ~vs:vdd in
  Alcotest.(check bool) "pmos off" true
    (Float.abs off.Mosfet.id < 1e-3 *. Float.abs e.Mosfet.id)

let test_ieff_definition () =
  let vdd = 0.8 in
  let ih = Mosfet.channel_current nmos ~vgs:vdd ~vds:(vdd /. 2.0) in
  let il = Mosfet.channel_current nmos ~vgs:(vdd /. 2.0) ~vds:vdd in
  check_close ~tol:1e-15 "Eq. 4" (0.5 *. (ih +. il)) (Mosfet.ieff nmos ~vdd)

let test_ieff_below_idsat () =
  Alcotest.(check bool) "ieff < idsat" true
    (Mosfet.ieff nmos ~vdd:0.8 < Mosfet.channel_current nmos ~vgs:0.8 ~vds:0.8)

let test_scale_width () =
  let w2 = Mosfet.scale_width nmos 2.0 in
  let i1 = Mosfet.channel_current nmos ~vgs:0.8 ~vds:0.8 in
  let i2 = Mosfet.channel_current w2 ~vgs:0.8 ~vds:0.8 in
  check_close ~tol:1e-12 "current scales with width" (2.0 *. i1) i2;
  check_close ~tol:1e-25 "gate cap scales" (2.0 *. Mosfet.cgate nmos)
    (Mosfet.cgate w2);
  Alcotest.check_raises "bad factor"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Mosfet.scale_width" "factor must be > 0")) (fun () ->
      ignore (Mosfet.scale_width nmos 0.0))

(* ------------------------------------------------------------------ *)
(* Tech *)

let test_six_nodes () =
  Alcotest.(check int) "six nodes" 6 (List.length Tech.all);
  let names = List.map (fun t -> t.Tech.name) Tech.all in
  Alcotest.(check (list string)) "names"
    [ "n14"; "n20"; "n28"; "n32"; "n40"; "n45" ]
    names

let test_by_name () =
  Alcotest.(check string) "lookup" "n28" (Tech.by_name "n28").Tech.name;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Tech.by_name "n3"))

let test_historical_excludes_target () =
  let h = Tech.historical_for Tech.n14 in
  Alcotest.(check int) "five others" 5 (List.length h);
  Alcotest.(check bool) "excluded" true
    (not (List.exists (fun t -> t.Tech.name = "n14") h))

let test_nodes_scale_sensibly () =
  (* Newer nodes: lower supply, faster devices per width. *)
  Alcotest.(check bool) "vdd scales down" true
    (Tech.n14.Tech.vdd_nom < Tech.n45.Tech.vdd_nom);
  let drive t =
    Mosfet.channel_current t.Tech.nmos ~vgs:t.Tech.vdd_nom ~vds:t.Tech.vdd_nom /. t.Tech.nmos.Mosfet.w
  in
  Alcotest.(check bool) "drive per width improves" true
    (drive Tech.n14 > drive Tech.n45)

let test_vt_variant () =
  let lvt = Tech.vt_variant Tech.n14 ~shift:(-0.06) ~suffix:"-lvt" in
  Alcotest.(check string) "renamed" "n14-lvt" lvt.Tech.name;
  Alcotest.(check (float 1e-12)) "nmos vt shifted"
    (Tech.n14.Tech.nmos.Mosfet.vt -. 0.06)
    lvt.Tech.nmos.Mosfet.vt;
  (* LVT is faster. *)
  Alcotest.(check bool) "more drive" true
    (Mosfet.ieff lvt.Tech.nmos ~vdd:0.8 > Mosfet.ieff Tech.n14.Tech.nmos ~vdd:0.8)

let test_input_box () =
  let box = Tech.input_box Tech.n28 in
  Alcotest.(check int) "3 dims" 3 (Array.length box);
  Array.iter
    (fun (lo, hi) -> Alcotest.(check bool) "valid" true (lo < hi))
    box

let test_temperature_scaling () =
  let hot = Mosfet.at_temperature nmos ~celsius:125.0 in
  let cold = Mosfet.at_temperature nmos ~celsius:(-40.0) in
  (* Mobility falls and Vt drops with temperature. *)
  Alcotest.(check bool) "hot kp lower" true (hot.Mosfet.kp < nmos.Mosfet.kp);
  Alcotest.(check bool) "hot vt lower" true (hot.Mosfet.vt < nmos.Mosfet.vt);
  Alcotest.(check bool) "cold kp higher" true (cold.Mosfet.kp > nmos.Mosfet.kp);
  (* At nominal supply mobility dominates: hot device is weaker. *)
  Alcotest.(check bool) "hot drives less at nominal vdd" true
    (Mosfet.ieff hot ~vdd:0.8 < Mosfet.ieff nmos ~vdd:0.8);
  (* 25 C is the identity. *)
  let same = Mosfet.at_temperature nmos ~celsius:25.0 in
  check_close ~tol:1e-12 "identity vt" nmos.Mosfet.vt same.Mosfet.vt;
  Alcotest.check_raises "absolute zero"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Mosfet.at_temperature" "below absolute zero")) (fun () ->
      ignore (Mosfet.at_temperature nmos ~celsius:(-300.0)))

let test_tech_at_temperature () =
  let hot = Tech.at_temperature Tech.n14 ~celsius:125.0 in
  Alcotest.(check string) "renamed" "n14@125C" hot.Tech.name;
  Alcotest.(check bool) "devices rescaled" true
    (hot.Tech.nmos.Mosfet.kp < Tech.n14.Tech.nmos.Mosfet.kp)

let test_corners () =
  let ss = Process.corner Tech.n14 Process.Ss in
  let ff = Process.corner Tech.n14 Process.Ff in
  let tt = Process.corner Tech.n14 Process.Tt in
  let sf = Process.corner Tech.n14 Process.Sf in
  Alcotest.(check bool) "ss raises vt" true (ss.Process.dvt_n > 0.0);
  Alcotest.(check bool) "ff lowers vt" true (ff.Process.dvt_n < 0.0);
  Alcotest.(check bool) "tt neutral" true
    (tt.Process.dvt_n = 0.0 && tt.Process.dkp_rel = 0.0);
  Alcotest.(check bool) "sf splits polarity" true
    (sf.Process.dvt_n > 0.0 && sf.Process.dvt_p < 0.0);
  Alcotest.(check bool) "mixed corner mobility neutral" true
    (Float.abs sf.Process.dkp_rel < 1e-12);
  (* Corner seeds carry no local mismatch. *)
  check_close ~tol:0.0 "no local" 0.0
    (Process.local_dvt ss Tech.n14 ~device_index:3 nmos)

(* ------------------------------------------------------------------ *)
(* Process *)

let test_nominal_seed_is_identity () =
  let p = Process.apply Process.nominal Tech.n14 ~device_index:3 nmos in
  check_close ~tol:1e-15 "vt unchanged" nmos.Mosfet.vt p.Mosfet.vt;
  check_close ~tol:1e-20 "kp unchanged" nmos.Mosfet.kp p.Mosfet.kp;
  check_close ~tol:1e-12 "cpar scale 1" 1.0 (Process.cpar_scale Process.nominal)

let test_seed_determinism () =
  let rng1 = Rng.create 77 and rng2 = Rng.create 77 in
  let s1 = (Process.sample_batch rng1 Tech.n14 1).(0) and s2 = (Process.sample_batch rng2 Tech.n14 1).(0) in
  Alcotest.(check bool) "same seed same draws" true (s1 = s2);
  (* Applying the same seed twice to the same device index gives the
     same parameters (the statistical flow depends on this). *)
  let a = Process.apply s1 Tech.n14 ~device_index:5 nmos in
  let b = Process.apply s1 Tech.n14 ~device_index:5 nmos in
  Alcotest.(check bool) "deterministic apply" true (a = b)

let test_local_mismatch_varies_by_device () =
  let rng = Rng.create 78 in
  let s = (Process.sample_batch rng Tech.n14 1).(0) in
  let d0 = Process.local_dvt s Tech.n14 ~device_index:0 nmos in
  let d1 = Process.local_dvt s Tech.n14 ~device_index:1 nmos in
  Alcotest.(check bool) "differs across devices" true (d0 <> d1)

let test_pelgrom_scaling () =
  (* Wider devices have smaller local sigma: check empirically. *)
  let rng = Rng.create 79 in
  let wide = Mosfet.scale_width nmos 16.0 in
  let sample_sigma dev =
    let xs =
      Array.init 3_000 (fun i ->
          let s = (Process.sample_batch (Rng.create (i + 1)) Tech.n14 1).(0) in
          ignore rng;
          Process.local_dvt s Tech.n14 ~device_index:0 dev)
    in
    Slc_prob.Describe.std xs
  in
  let s_min = sample_sigma nmos and s_wide = sample_sigma wide in
  Alcotest.(check bool) "sigma shrinks ~4x for 16x width" true
    (s_wide < 0.35 *. s_min && s_wide > 0.15 *. s_min)

let test_global_shift_statistics () =
  let rng = Rng.create 80 in
  let seeds = Process.sample_batch rng Tech.n28 4_000 in
  let dvts = Array.map (fun s -> s.Process.dvt_n) seeds in
  let sigma = Slc_prob.Describe.std dvts in
  check_close ~tol:0.002 "matches card sigma" Tech.n28.Tech.sigma_vt_global sigma

let test_lhs_batch () =
  let rng = Rng.create 83 in
  let n = 64 in
  let seeds = Process.sample_batch_lhs rng Tech.n28 n in
  Alcotest.(check int) "count" n (Array.length seeds);
  Array.iteri (fun i s -> Alcotest.(check int) "index" i s.Process.index) seeds;
  (* Stratification: the Gaussian CDF of dvt_n hits every n-quantile
     slice exactly once. *)
  let hits = Array.make n 0 in
  Array.iter
    (fun s ->
      let u =
        Slc_num.Special.normal_cdf ~mu:0.0 ~sigma:Tech.n28.Tech.sigma_vt_global
          s.Process.dvt_n
      in
      let b = min (n - 1) (int_of_float (u *. float_of_int n)) in
      hits.(b) <- hits.(b) + 1)
    seeds;
  Array.iter (fun c -> Alcotest.(check int) "one per stratum" 1 c) hits;
  (* Sample std close to the card sigma (LHS is unbiased). *)
  let std = Slc_prob.Describe.std (Array.map (fun s -> s.Process.dvt_n) seeds) in
  Alcotest.(check bool) "std near sigma" true
    (Float.abs (std -. Tech.n28.Tech.sigma_vt_global)
     < 0.25 *. Tech.n28.Tech.sigma_vt_global)

let test_batch_indexing () =
  let rng = Rng.create 81 in
  let seeds = Process.sample_batch rng Tech.n14 10 in
  Array.iteri
    (fun i s -> Alcotest.(check int) "index" i s.Process.index)
    seeds

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_current_finite_positive =
  QCheck.Test.make ~name:"channel current finite and >= 0" ~count:200
    QCheck.(pair (float_range 0.0 1.2) (float_range 0.0 1.2))
    (fun (vgs, vds) ->
      let id = Mosfet.channel_current nmos ~vgs ~vds in
      Float.is_finite id && id >= 0.0)

let prop_gm_nonnegative =
  QCheck.Test.make ~name:"gm >= 0 in normal operation" ~count:200
    QCheck.(pair (float_range 0.0 1.0) (float_range 0.001 1.0))
    (fun (vg, vd) ->
      let e = Mosfet.eval nmos ~vg ~vd ~vs:0.0 in
      e.Mosfet.d_vg >= -1e-15)

let prop_hotter_is_weaker =
  QCheck.Test.make ~name:"drive decreases monotonically with temperature"
    ~count:50
    QCheck.(pair (float_range (-40.0) 100.0) (float_range 5.0 25.0))
    (fun (celsius, step) ->
      let cold = Mosfet.at_temperature nmos ~celsius in
      let hot = Mosfet.at_temperature nmos ~celsius:(celsius +. step) in
      Mosfet.ieff hot ~vdd:0.8 < Mosfet.ieff cold ~vdd:0.8)

let prop_seed_variations_bounded =
  QCheck.Test.make ~name:"relative shifts stay in truncation bounds"
    ~count:200 QCheck.small_int (fun n ->
      let rng = Rng.create (n + 7) in
      let s = (Process.sample_batch rng Tech.n40 1).(0) in
      Float.abs s.Process.dkp_rel <= 0.4
      && Float.abs s.Process.dl_rel <= 0.3
      && Float.abs s.Process.dcpar_rel <= 0.4)

let () =
  Alcotest.run "slc_device"
    [
      ( "mosfet",
        [
          Alcotest.test_case "off state" `Quick test_current_off_state;
          Alcotest.test_case "monotone in vgs" `Quick test_current_monotone_vgs;
          Alcotest.test_case "monotone in vds" `Quick test_current_monotone_vds;
          Alcotest.test_case "zero vds" `Quick test_zero_vds_zero_current;
          Alcotest.test_case "analytic derivatives" `Quick
            test_eval_derivatives_match_fd;
          Alcotest.test_case "source/drain symmetry" `Quick
            test_source_drain_symmetry;
          Alcotest.test_case "continuity at vds=0" `Quick
            test_continuity_across_vds_zero;
          Alcotest.test_case "pmos mirror" `Quick test_pmos_mirror;
          Alcotest.test_case "ieff definition (Eq 4)" `Quick test_ieff_definition;
          Alcotest.test_case "ieff < idsat" `Quick test_ieff_below_idsat;
          Alcotest.test_case "width scaling" `Quick test_scale_width;
          QCheck_alcotest.to_alcotest prop_current_finite_positive;
          QCheck_alcotest.to_alcotest prop_gm_nonnegative;
        ] );
      ( "tech",
        [
          Alcotest.test_case "six nodes" `Quick test_six_nodes;
          Alcotest.test_case "lookup by name" `Quick test_by_name;
          Alcotest.test_case "historical excludes target" `Quick
            test_historical_excludes_target;
          Alcotest.test_case "roadmap scaling" `Quick test_nodes_scale_sensibly;
          Alcotest.test_case "vt variant" `Quick test_vt_variant;
          Alcotest.test_case "temperature scaling" `Quick
            test_temperature_scaling;
          Alcotest.test_case "tech at temperature" `Quick
            test_tech_at_temperature;
          Alcotest.test_case "process corners" `Quick test_corners;
          Alcotest.test_case "input box" `Quick test_input_box;
        ] );
      ( "process",
        [
          Alcotest.test_case "nominal is identity" `Quick
            test_nominal_seed_is_identity;
          Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
          Alcotest.test_case "local mismatch per device" `Quick
            test_local_mismatch_varies_by_device;
          Alcotest.test_case "pelgrom width scaling" `Quick test_pelgrom_scaling;
          Alcotest.test_case "global sigma matches card" `Quick
            test_global_shift_statistics;
          Alcotest.test_case "batch indexing" `Quick test_batch_indexing;
          Alcotest.test_case "latin hypercube batch" `Quick test_lhs_batch;
          QCheck_alcotest.to_alcotest prop_seed_variations_bounded;
          QCheck_alcotest.to_alcotest prop_hotter_is_weaker;
        ] );
    ]
