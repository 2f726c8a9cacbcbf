(* Tests for the core characterization library: the compact timing
   model, LSE extraction, prior learning, MAP estimation, belief
   propagation and the flow plumbing. *)

open Slc_core
module Tech = Slc_device.Tech
module Cells = Slc_cell.Cells
module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness
module Equivalent = Slc_cell.Equivalent
module Vec = Slc_num.Vec
module Mat = Slc_num.Mat
module Mvn = Slc_prob.Mvn

let tech = Tech.n14

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let inv_fall = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall

let ieff_at (p : Harness.point) =
  Equivalent.ieff (Equivalent.of_arc tech inv_fall) ~vdd:p.Harness.vdd

(* Synthetic observations drawn exactly from the model: extraction
   must recover the generating parameters. *)
let synthetic_obs params k =
  let points = Input_space.fitting_points tech ~k in
  Array.map
    (fun pt ->
      let ieff = ieff_at pt in
      {
        Extract_lse.point = pt;
        ieff;
        value = Timing_model.eval params ~ieff pt;
      })
    points

let p_true =
  { Timing_model.kd = 0.35; cpar = 1.2; v_off = -0.22; alpha = 0.08 }

(* ------------------------------------------------------------------ *)
(* Timing_model *)

let test_eval_formula () =
  let p = { Timing_model.kd = 0.4; cpar = 1.0; v_off = -0.2; alpha = 0.1 } in
  let pt = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 } in
  (* cap term: (2 + 1 + 0.1*5) fF = 3.5 fF; charge = 0.6 V * 3.5 fF. *)
  let expected = 0.4 *. 0.6 *. 3.5e-15 /. 40e-6 in
  check_close ~tol:1e-18 "closed form" expected
    (Timing_model.eval p ~ieff:40e-6 pt)

let test_vec_roundtrip () =
  let v = Timing_model.to_vec p_true in
  Alcotest.(check int) "4 params" 4 (Array.length v);
  Alcotest.(check bool) "roundtrip" true (Timing_model.of_vec v = p_true)

let test_grad_matches_numeric () =
  let pt = { Harness.sin = 8e-12; cload = 3e-15; vdd = 0.75 } in
  let ieff = 35e-6 in
  let g = Timing_model.grad p_true ~ieff pt in
  let v0 = Timing_model.to_vec p_true in
  Array.iteri
    (fun j gj ->
      let h = 1e-6 *. Float.max 1.0 (Float.abs v0.(j)) in
      let vp = Vec.copy v0 and vm = Vec.copy v0 in
      vp.(j) <- vp.(j) +. h;
      vm.(j) <- vm.(j) -. h;
      let fp = Timing_model.eval (Timing_model.of_vec vp) ~ieff pt in
      let fm = Timing_model.eval (Timing_model.of_vec vm) ~ieff pt in
      let num = (fp -. fm) /. (2.0 *. h) in
      Alcotest.(check bool)
        (Printf.sprintf "grad[%d]" j)
        true
        (Float.abs (gj -. num) < 1e-6 *. Float.max (Float.abs num) 1e-15))
    g

let test_rel_residual () =
  let pt = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 } in
  let f = Timing_model.eval p_true ~ieff:40e-6 pt in
  check_close ~tol:1e-12 "zero at truth" 0.0
    (Timing_model.rel_residual p_true ~ieff:40e-6 pt ~observed:f);
  check_close ~tol:1e-12 "relative scale" (-0.5)
    (Timing_model.rel_residual p_true ~ieff:40e-6 pt ~observed:(2.0 *. f))

let test_eval_rejects_bad_ieff () =
  let pt = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 } in
  Alcotest.check_raises "ieff <= 0"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Timing_model.eval" "ieff must be > 0")) (fun () ->
      ignore (Timing_model.eval p_true ~ieff:0.0 pt))

(* ------------------------------------------------------------------ *)
(* Input_space *)

let test_normalize_roundtrip () =
  let pt = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 } in
  let u = Input_space.normalize tech pt in
  Array.iter
    (fun x -> Alcotest.(check bool) "in unit cube" true (x >= 0.0 && x <= 1.0))
    u;
  let q = Input_space.denormalize tech u in
  check_close ~tol:1e-20 "sin" pt.Harness.sin q.Harness.sin;
  check_close ~tol:1e-22 "cload" pt.Harness.cload q.Harness.cload;
  check_close ~tol:1e-12 "vdd" pt.Harness.vdd q.Harness.vdd

let test_validation_set_deterministic () =
  let a = Input_space.validation_set ~n:50 ~seed:1 tech in
  let b = Input_space.validation_set ~n:50 ~seed:1 tech in
  Alcotest.(check bool) "same" true (a = b);
  let c = Input_space.validation_set ~n:50 ~seed:2 tech in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_fitting_points_properties () =
  let box = Input_space.box tech in
  let inside (p : Harness.point) =
    let v = Harness.vec_of_point p in
    Array.for_all2 (fun (lo, hi) x -> x >= lo && x <= hi) box v
  in
  let pts = Input_space.fitting_points tech ~k:12 in
  Alcotest.(check int) "count" 12 (Array.length pts);
  Array.iter (fun p -> Alcotest.(check bool) "inside box" true (inside p)) pts;
  (* Prefix property: the k-point design is a prefix of the k+1 one. *)
  let p5 = Input_space.fitting_points tech ~k:5 in
  let p8 = Input_space.fitting_points tech ~k:8 in
  for i = 0 to 4 do
    Alcotest.(check bool) "prefix" true (p5.(i) = p8.(i))
  done

let test_unit_grid_shape () =
  let g = Input_space.unit_grid ~levels:[| 2; 3; 2 |] in
  Alcotest.(check int) "count" 12 (Array.length g);
  Array.iter
    (fun u ->
      Array.iter
        (fun x ->
          Alcotest.(check bool) "margin bounds" true (x >= 0.05 && x <= 0.95))
        u)
    g

(* ------------------------------------------------------------------ *)
(* Extract_lse *)

let test_lse_recovers_synthetic () =
  let obs = synthetic_obs p_true 12 in
  let p = Extract_lse.fit obs in
  check_close ~tol:1e-4 "kd" p_true.Timing_model.kd p.Timing_model.kd;
  check_close ~tol:1e-3 "cpar" p_true.Timing_model.cpar p.Timing_model.cpar;
  check_close ~tol:1e-3 "v_off" p_true.Timing_model.v_off p.Timing_model.v_off;
  check_close ~tol:1e-3 "alpha" p_true.Timing_model.alpha p.Timing_model.alpha;
  Alcotest.(check bool) "zero residual" true
    (Extract_lse.avg_abs_rel_error p obs < 1e-8)

let test_lse_weighted () =
  (* Corrupt one observation; a zero weight on it restores recovery. *)
  let obs = synthetic_obs p_true 10 in
  obs.(3) <- { obs.(3) with Extract_lse.value = obs.(3).Extract_lse.value *. 2.0 };
  let weights = Array.make 10 1.0 in
  weights.(3) <- 0.0;
  let p = Extract_lse.fit ~weights obs in
  check_close ~tol:1e-3 "kd recovered despite outlier" p_true.Timing_model.kd
    p.Timing_model.kd

let test_lse_rejects_empty_and_bad () =
  Alcotest.check_raises "empty"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Extract_lse.fit" "no observations")) (fun () ->
      ignore (Extract_lse.fit [||]));
  let obs = synthetic_obs p_true 3 in
  obs.(0) <- { obs.(0) with Extract_lse.value = -1.0 };
  Alcotest.check_raises "negative observation"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Extract_lse.fit" "non-positive observation")) (fun () ->
      ignore (Extract_lse.fit obs))

(* ------------------------------------------------------------------ *)
(* Prior (tiny learning run) *)

let tiny_prior_pair =
  lazy
    (Prior.learn_pair ~cells:[ Cells.inv ] ~grid_levels:[| 2; 2; 2 |]
       ~historical:[ Tech.n20; Tech.n28 ] ())

let test_prior_structure () =
  let pair = Lazy.force tiny_prior_pair in
  let p = pair.Prior.delay in
  Alcotest.(check int) "4-dim prior" 4 (Array.length p.Prior.mvn.Mvn.mu);
  (* 2 techs x 2 INV arcs. *)
  Alcotest.(check int) "provenance" 4 (List.length p.Prior.provenance);
  Alcotest.(check bool) "cost counted" true (p.Prior.learn_cost > 0);
  List.iter
    (fun (f : Prior.fitted_arc) ->
      Alcotest.(check bool)
        (f.Prior.tech_name ^ "/" ^ f.Prior.arc_name ^ " fit good")
        true
        (f.Prior.fit_error < 0.06))
    p.Prior.provenance

let test_prior_mean_plausible () =
  let pair = Lazy.force tiny_prior_pair in
  let mu = Timing_model.of_vec (pair.Prior.delay.Prior.mvn : Mvn.t).Mvn.mu in
  Alcotest.(check bool) "kd in range" true
    (mu.Timing_model.kd > 0.1 && mu.Timing_model.kd < 0.8);
  Alcotest.(check bool) "cpar positive" true (mu.Timing_model.cpar > 0.0);
  Alcotest.(check bool) "v_off negative" true (mu.Timing_model.v_off < 0.0)

let test_beta_positive_everywhere () =
  let pair = Lazy.force tiny_prior_pair in
  let pts = Input_space.validation_set ~n:40 ~seed:3 tech in
  Array.iter
    (fun pt ->
      let b = Prior.beta_at pair.Prior.delay tech pt in
      Alcotest.(check bool) "beta positive finite" true
        (b > 0.0 && Float.is_finite b))
    pts

let test_beta_floor_caps_precision () =
  let pair = Lazy.force tiny_prior_pair in
  let pts = Input_space.validation_set ~n:40 ~seed:4 tech in
  Array.iter
    (fun pt ->
      let b = Prior.beta_at pair.Prior.delay tech pt in
      (* floor 0.01 relative sigma -> beta <= 1e4 *)
      Alcotest.(check bool) "beta bounded by floor" true (b <= 1e4 +. 1e-6))
    pts

let test_constant_beta_flattens () =
  let pair = Lazy.force tiny_prior_pair in
  let flat = Prior.constant_beta pair.Prior.delay in
  let p1 = { Harness.sin = 2e-12; cload = 1e-15; vdd = 0.7 } in
  let p2 = { Harness.sin = 14e-12; cload = 5e-15; vdd = 0.95 } in
  check_close ~tol:1e-9 "same beta everywhere"
    (Prior.beta_at flat tech p1) (Prior.beta_at flat tech p2)

let test_prior_requires_history () =
  Alcotest.check_raises "no nodes"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Prior.learn_pair" "no historical nodes")) (fun () ->
      ignore (Prior.learn_pair ~historical:[] ()))

(* ------------------------------------------------------------------ *)
(* Map_fit *)

let test_map_no_observations_returns_prior_mean () =
  let pair = Lazy.force tiny_prior_pair in
  let prior = pair.Prior.delay in
  let r = Map_fit.fit ~prior ~tech [||] in
  let mu = (prior.Prior.mvn : Mvn.t).Mvn.mu in
  Alcotest.(check bool) "params = prior mean" true
    (Helpers.vec_close ~tol:1e-6 (Timing_model.to_vec r.Map_fit.params) mu);
  check_close ~tol:1e-9 "no data cost" 0.0 r.Map_fit.data_cost

let test_map_converges_to_truth_with_data () =
  let pair = Lazy.force tiny_prior_pair in
  let prior = pair.Prior.delay in
  let obs = synthetic_obs p_true 30 in
  let r = Map_fit.fit ~prior ~tech obs in
  (* With plenty of noiseless data, MAP should sit near the truth even
     if the prior mean is elsewhere. *)
  check_close ~tol:0.02 "kd" p_true.Timing_model.kd r.Map_fit.params.Timing_model.kd;
  check_close ~tol:0.15 "cpar" p_true.Timing_model.cpar
    r.Map_fit.params.Timing_model.cpar

let test_map_beats_lse_at_small_k () =
  (* Real simulated data, k = 2: MAP should predict held-out delays
     better than LSE thanks to the prior. *)
  let pair = Lazy.force tiny_prior_pair in
  let ds =
    Char_flow.simulate_dataset tech inv_fall
      (Input_space.validation_set ~n:25 ~seed:5 tech)
  in
  let bayes = Char_flow.train_bayes ~prior:pair tech inv_fall ~k:2 in
  let lse = Char_flow.train_lse tech inv_fall ~k:2 in
  let e_bayes = (Char_flow.evaluate bayes ds).Char_flow.td_err in
  let e_lse = (Char_flow.evaluate lse ds).Char_flow.td_err in
  Alcotest.(check bool)
    (Printf.sprintf "bayes (%.3f) <= lse (%.3f)" e_bayes e_lse)
    true (e_bayes <= e_lse +. 1e-6)

let test_map_posterior_decomposition () =
  let pair = Lazy.force tiny_prior_pair in
  let obs = synthetic_obs p_true 5 in
  let r = Map_fit.fit ~prior:pair.Prior.delay ~tech obs in
  check_close ~tol:1e-6 "cost = (prior + data)/2" r.Map_fit.posterior_cost
    (0.5 *. (r.Map_fit.prior_mahalanobis +. r.Map_fit.data_cost))

(* ------------------------------------------------------------------ *)
(* Belief *)

(* The chain starts from a diagonal covariance of 10.0. *)
let test_belief_observe_shrinks_cov () =
  let rows = Array.init 10 (fun i -> Timing_model.to_vec
    { Timing_model.kd = 0.3 +. (0.001 *. float_of_int i); cpar = 1.0;
      v_off = -0.2; alpha = 0.1 }) in
  let post = Belief.chain [ ("n", rows) ] in
  Alcotest.(check bool) "variance shrinks" true
    (Mat.get post.Belief.cov 0 0 < 10.0);
  (* Mean moves towards the data. *)
  Alcotest.(check bool) "mean near data" true
    (Float.abs (post.Belief.mu.(0) -. 0.3045) < 0.05)

(* A node without rows is a drift step only. *)
let test_belief_drift_grows_cov () =
  let after = Belief.chain [ ("n", [||]) ] in
  Alcotest.(check int) "model dimension" 4 (Vec.dim after.Belief.mu);
  Alcotest.(check bool) "cov grows" true
    (Mat.get after.Belief.cov 0 0 > 10.0)

let test_belief_chain_and_prior () =
  let pair = Lazy.force tiny_prior_pair in
  let ordered = [ "n28"; "n20" ] in
  let chained = Belief.chain_prior pair.Prior.delay ~ordered in
  Alcotest.(check int) "still 4-dim" 4 (Array.length chained.Prior.mvn.Mvn.mu);
  let mu = (chained.Prior.mvn : Mvn.t).Mvn.mu in
  Alcotest.(check bool) "kd plausible" true (mu.(0) > 0.1 && mu.(0) < 0.8)

let test_belief_empty_chain_rejected () =
  Alcotest.check_raises "empty"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Belief.chain" "empty chain")) (fun () ->
      ignore (Belief.chain []))

(* Deterministic synthetic node populations. *)
let belief_rows ~shift n =
  Array.init n (fun i ->
      Timing_model.to_vec
        {
          Timing_model.kd = 0.3 +. shift +. (0.002 *. float_of_int i);
          cpar = 1.0 +. (0.01 *. float_of_int i);
          v_off = -0.2 +. (0.5 *. shift);
          alpha = 0.1;
        })

let same_message msg a b =
  let bits = Int64.bits_of_float in
  let dim = Vec.dim a.Belief.mu in
  Alcotest.(check int) (msg ^ ": dim") dim (Vec.dim b.Belief.mu);
  for i = 0 to dim - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "%s: mu.(%d) bitwise" msg i)
      true
      (bits a.Belief.mu.(i) = bits b.Belief.mu.(i))
  done;
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "%s: cov.(%d,%d) bitwise" msg i j)
        true
        (bits (Mat.get a.Belief.cov i j) = bits (Mat.get b.Belief.cov i j))
    done
  done

(* [Belief.chain] pinned bit for bit: a six-row node, a single-row node
   (the fixed-spread branch of [observe]), an empty node (returned
   unchanged) and a seven-row node.  The expected values are recorded
   bits, so any change to the operation order of [observe] or [drift]
   shows here. *)
let test_belief_chain_golden_bits () =
  let nodes =
    [
      ("a", belief_rows ~shift:0.00 6);
      ("b", belief_rows ~shift:0.03 1);
      ("c", [||]);
      ("d", belief_rows ~shift:0.05 7);
    ]
  in
  let expect =
    {
      Belief.mu =
        [|
          0x1.6c69f55659e48p-2;
          0x1.078669106cd9p+0;
          -0x1.6667f19b72e75p-3;
          0x1.9999999996337p-4;
        |];
      cov =
        Helpers.mat_of_rows
          [|
            [|
              0x1.7740a81e6104ap-19;
              0x1.bd26e5da5fc22p-17;
              -0x1.a2be8e85a626cp-136;
              -0x1.72519309cdebep-122;
            |];
            [|
              0x1.bd26e5da5fc22p-17;
              0x1.16d9dc0ff0782p-14;
              -0x1.06648a481e68dp-133;
              0x1.5462cfd873768p-111;
            |];
            [|
              -0x1.a2be8e85a626cp-136;
              -0x1.06648a481e68dp-133;
              0x1.32bfa03622704p-23;
              -0x1.71666040808bfp-140;
            |];
            [|
              -0x1.72519309cdebep-122;
              0x1.5462cfd873768p-111;
              -0x1.71666040808bfp-140;
              0x1.32bfa03622704p-23;
            |];
          |];
    }
  in
  same_message "chain" expect (Belief.chain nodes)

(* ------------------------------------------------------------------ *)
(* Char_flow helpers *)

let test_budget_to_reach () =
  let curve = [ (1, 0.5); (10, 0.05); (100, 0.01) ] in
  (match Char_flow.budget_to_reach ~curve ~target:0.05 with
  | Some b -> check_close ~tol:1e-9 "exact point" 10.0 b
  | None -> Alcotest.fail "expected reach");
  (match Char_flow.budget_to_reach ~curve ~target:0.3 with
  | Some b -> Alcotest.(check bool) "interpolated" true (b > 1.0 && b < 10.0)
  | None -> Alcotest.fail "expected reach");
  Alcotest.(check bool) "unreachable" true
    (Char_flow.budget_to_reach ~curve ~target:0.001 = None)

let test_speedup_vs () =
  let curve = [ (1, 0.5); (10, 0.05) ] in
  (match Char_flow.speedup_vs ~budget:2.0 ~curve ~target:0.05 with
  | Char_flow.Reached s -> check_close ~tol:1e-9 "5x" 5.0 s
  | Char_flow.At_least _ -> Alcotest.fail "should reach");
  match Char_flow.speedup_vs ~budget:2.0 ~curve ~target:0.001 with
  | Char_flow.At_least s -> check_close ~tol:1e-9 "lower bound" 5.0 s
  | Char_flow.Reached _ -> Alcotest.fail "should not reach"

let test_train_lut_cost_within_budget () =
  let p = Char_flow.train_lut tech inv_fall ~budget:10 in
  Alcotest.(check bool) "cost <= 10" true (p.Char_flow.train_cost <= 10);
  Alcotest.(check bool) "cost > 4" true (p.Char_flow.train_cost > 4)

let test_predictor_positive () =
  let pair = Lazy.force tiny_prior_pair in
  let p = Char_flow.train_bayes ~prior:pair tech inv_fall ~k:3 in
  let pt = { Harness.sin = 6e-12; cload = 3e-15; vdd = 0.9 } in
  Alcotest.(check bool) "td positive" true (p.Char_flow.predict_td pt > 0.0);
  Alcotest.(check bool) "sout positive" true (p.Char_flow.predict_sout pt > 0.0)

(* A model predictor keeps the last [Ieff] it computed, per supply
   voltage.  Over a sweep that alternates two supplies (a miss on every
   change, hits between) and from two pool domains at once, every
   answer is bitwise the model evaluated at a freshly computed [Ieff]. *)
let test_model_predictor_ieff_memo () =
  let seed = (Slc_device.Process.sample_batch (Slc_prob.Rng.create 9) tech 1).(0) in
  let p_sout = { p_true with Timing_model.kd = 0.5; alpha = 0.12 } in
  let predictor () =
    Char_flow.predictor_of_model ~seed ~label:"model+bayes" ~train_cost:0 tech
      inv_fall
      (Char_flow.Timing_pair { td = p_true; sout = p_sout })
  in
  let points =
    Array.init 64 (fun i ->
        {
          Harness.sin = 2e-12 *. float_of_int (1 + (i mod 7));
          cload = 1e-15 *. float_of_int (1 + (i mod 5));
          vdd = (if i / 3 mod 2 = 0 then 0.7 else 0.9);
        })
  in
  let bits pt =
    let ieff = Char_flow.ieff_at ~seed tech inv_fall pt in
    ( Int64.bits_of_float (Timing_model.eval p_true ~ieff pt),
      Int64.bits_of_float (Timing_model.eval p_sout ~ieff pt) )
  in
  let expected = Array.map bits points in
  let answer (p : Char_flow.predictor) pt =
    ( Int64.bits_of_float (p.Char_flow.predict_td pt),
      Int64.bits_of_float (p.Char_flow.predict_sout pt) )
  in
  let p = predictor () in
  Array.iteri
    (fun i pt ->
      if answer p pt <> expected.(i) then
        Alcotest.failf "point %d: memoized answer differs" i)
    points;
  let shared = predictor () in
  let got =
    Slc_num.Parallel.map ~domains:2 ~chunk:1 (answer shared)
      (Array.concat [ points; points; points ])
  in
  Array.iteri
    (fun i b ->
      if b <> expected.(i mod Array.length points) then
        Alcotest.failf "parallel query %d: memoized answer differs" i)
    got

(* ------------------------------------------------------------------ *)
(* Model_ext *)

let test_model_ext_reduces_to_base () =
  let p5 = Model_ext.of_base p_true in
  let pt = { Harness.sin = 6e-12; cload = 3e-15; vdd = 0.8 } in
  check_close ~tol:1e-20 "gamma=0 equals base"
    (Timing_model.eval p_true ~ieff:40e-6 pt)
    (Model_ext.eval p5 ~ieff:40e-6 pt)

let test_model_ext_grad_matches_numeric () =
  let p5 = { Model_ext.base = p_true; gamma = 0.05 } in
  let pt = { Harness.sin = 8e-12; cload = 3e-15; vdd = 0.75 } in
  let ieff = 35e-6 in
  let g = Model_ext.grad p5 ~ieff pt in
  let to_vec (p : Model_ext.params) =
    Array.append (Timing_model.to_vec p.Model_ext.base) [| p.Model_ext.gamma |]
  and of_vec v =
    { Model_ext.base = Timing_model.of_vec (Array.sub v 0 4); gamma = v.(4) }
  in
  let v0 = to_vec p5 in
  Array.iteri
    (fun j gj ->
      let h = 1e-6 *. Float.max 1.0 (Float.abs v0.(j)) in
      let vp = Vec.copy v0 and vm = Vec.copy v0 in
      vp.(j) <- vp.(j) +. h;
      vm.(j) <- vm.(j) -. h;
      let fp = Model_ext.eval (of_vec vp) ~ieff pt in
      let fm = Model_ext.eval (of_vec vm) ~ieff pt in
      let num = (fp -. fm) /. (2.0 *. h) in
      Alcotest.(check bool)
        (Printf.sprintf "ext grad[%d]" j)
        true
        (Float.abs (gj -. num) < 1e-6 *. Float.max (Float.abs num) 1e-15))
    g

let test_model_ext_fit_recovers_gamma () =
  let truth = { Model_ext.base = p_true; gamma = 0.04 } in
  let points = Input_space.fitting_points tech ~k:20 in
  let obs =
    Array.map
      (fun pt ->
        let ieff = ieff_at pt in
        {
          Extract_lse.point = pt;
          ieff;
          value = Model_ext.eval truth ~ieff pt;
        })
      points
  in
  let fitted = Model_ext.fit obs in
  check_close ~tol:5e-3 "gamma recovered" 0.04 fitted.Model_ext.gamma;
  Alcotest.(check bool) "tiny residual" true
    (Model_ext.avg_abs_rel_error fitted obs < 1e-6)

(* ------------------------------------------------------------------ *)
(* Random fitting designs / point overrides *)

let test_random_fitting_points () =
  let box = Input_space.box tech in
  let a = Input_space.random_fitting_points tech ~k:10 ~seed:3 in
  let b = Input_space.random_fitting_points tech ~k:10 ~seed:3 in
  Alcotest.(check bool) "deterministic" true (a = b);
  let c = Input_space.random_fitting_points tech ~k:10 ~seed:4 in
  Alcotest.(check bool) "seed-dependent" true (a <> c);
  Array.iter
    (fun p ->
      let v = Harness.vec_of_point p in
      Array.iteri
        (fun d x ->
          let lo, hi = box.(d) in
          Alcotest.(check bool) "inside box" true (x >= lo && x <= hi))
        v)
    a

let test_points_override_length_checked () =
  let pts = Input_space.fitting_points tech ~k:3 in
  Alcotest.check_raises "length mismatch"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Char_flow" "points override must have length k"))
    (fun () -> ignore (Char_flow.train_lse ~points:pts tech inv_fall ~k:2))

(* ------------------------------------------------------------------ *)
(* Statistical (tiny run) *)

let test_statistical_tiny () =
  let pair = Lazy.force tiny_prior_pair in
  let rng = Slc_prob.Rng.create 99 in
  let seeds = Slc_device.Process.sample_batch rng tech 4 in
  let points = Input_space.validation_set ~n:3 ~seed:6 tech in
  let base =
    Statistical.monte_carlo_baseline ~tech ~arc:inv_fall ~seeds ~points
  in
  Alcotest.(check int) "baseline cost" 12 base.Statistical.cost;
  let pop =
    Statistical.extract_population ~method_:(Statistical.Bayes pair) ~tech
      ~arc:inv_fall ~seeds ~budget:2 ()
  in
  Alcotest.(check int) "train cost = seeds*k" 8 pop.Statistical.train_cost;
  let e = Statistical.evaluate pop base in
  Alcotest.(check bool) "mu error sane" true
    (e.Statistical.e_mu_td >= 0.0 && e.Statistical.e_mu_td < 0.5);
  let samples = Statistical.predict_samples pop points.(0) ~td:true in
  Alcotest.(check int) "per-seed predictions" 4 (Array.length samples);
  Array.iter
    (fun s -> Alcotest.(check bool) "positive" true (s > 0.0))
    samples

(* Pooled and sequential statistical flows must agree BITWISE: the
   per-seed parameters, predictions, train cost, and the Monte-Carlo
   moments may not depend on how the (seed x point) batch was
   scheduled. *)
let test_statistical_pool_bitwise_sequential () =
  let pair = Lazy.force tiny_prior_pair in
  let rng = Slc_prob.Rng.create 123 in
  let seeds = Slc_device.Process.sample_batch rng tech 4 in
  let points = Input_space.validation_set ~n:3 ~seed:8 tech in
  let run () =
    let pop =
      Statistical.extract_population ~method_:(Statistical.Bayes pair) ~tech
        ~arc:inv_fall ~seeds ~budget:2 ()
    in
    let base =
      Statistical.monte_carlo_baseline ~tech ~arc:inv_fall ~seeds ~points
    in
    (pop, base)
  in
  let pop_p, base_p = run () in
  let pop_s, base_s = Slc_num.Parallel.sequential run in
  Alcotest.(check int) "train cost" pop_s.Statistical.train_cost
    pop_p.Statistical.train_cost;
  Array.iter
    (fun pt ->
      Array.iteri
        (fun i v ->
          let v' = (Statistical.predict_samples pop_s pt ~td:true).(i) in
          Alcotest.(check bool) "per-seed prediction bitwise" true
            (Int64.bits_of_float v = Int64.bits_of_float v'))
        (Statistical.predict_samples pop_p pt ~td:true))
    points;
  let bitwise_arr name a b =
    Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
    Array.iteri
      (fun i v ->
        Alcotest.(check bool) (name ^ " bitwise") true
          (Int64.bits_of_float v = Int64.bits_of_float b.(i)))
      a
  in
  bitwise_arr "mu_td" base_s.Statistical.mu_td base_p.Statistical.mu_td;
  bitwise_arr "sigma_td" base_s.Statistical.sigma_td base_p.Statistical.sigma_td;
  bitwise_arr "mu_sout" base_s.Statistical.mu_sout base_p.Statistical.mu_sout;
  bitwise_arr "sigma_sout" base_s.Statistical.sigma_sout
    base_p.Statistical.sigma_sout

(* Random_per_seed designs derive each seed's fitting points from
   Rng.split_ix at the seed's index: results are reproducible from an
   equal generator, and the caller's generator is never advanced. *)
let test_statistical_random_design_deterministic () =
  let pair = Lazy.force tiny_prior_pair in
  let rng = Slc_prob.Rng.create 7 in
  let seeds = Slc_device.Process.sample_batch rng tech 3 in
  let design_rng = Slc_prob.Rng.create 55 in
  let run () =
    Statistical.extract_population_design
      ~design:(Statistical.Random_per_seed design_rng)
      ~method_:(Statistical.Bayes pair) ~tech ~arc:inv_fall ~seeds ~budget:2 ()
  in
  let pop1 = run () in
  let pop2 = run () in
  let pop_seq = Slc_num.Parallel.sequential run in
  let pt = { Harness.sin = 6e-12; cload = 3e-15; vdd = 0.85 } in
  let pred (pop : Statistical.population) =
    Array.map (fun s -> pop.Statistical.predict_td s pt) seeds
  in
  let p1 = pred pop1 and p2 = pred pop2 and ps = pred pop_seq in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "reproducible" true
        (Int64.bits_of_float v = Int64.bits_of_float p2.(i));
      Alcotest.(check bool) "pool matches sequential" true
        (Int64.bits_of_float v = Int64.bits_of_float ps.(i)))
    p1;
  (* The supplied generator was only ever split, never advanced. *)
  let fresh = Slc_prob.Rng.create 55 in
  Alcotest.(check bool) "design rng unperturbed" true
    (Slc_prob.Rng.uint64 design_rng = Slc_prob.Rng.uint64 fresh);
  (* A different design generator yields different fits. *)
  let other =
    Statistical.extract_population_design
      ~design:(Statistical.Random_per_seed (Slc_prob.Rng.create 56))
      ~method_:(Statistical.Bayes pair) ~tech ~arc:inv_fall ~seeds ~budget:2 ()
  in
  Alcotest.(check bool) "different design differs" true
    (pred other <> p1)

(* Exact GP inference checked against the closed form.  With one
   training point the posterior at the query q is
     mean = m + k(q,x) (y - m) / (k(x,x) + noise2)
     var  = k(q,q) - k(q,x)^2 / (k(x,x) + noise2)
   and with two points the 2x2 system solves by hand. *)
let test_gpr_closed_form () =
  let h = { Gpr.signal2 = 2.0; noise2 = 0.1; lengths = [| 0.4; 0.5; 0.6 |] } in
  let kern a b =
    let za = Input_space.normalize tech a and zb = Input_space.normalize tech b in
    let s = ref 0.0 in
    for d = 0 to 2 do
      let u = (za.(d) -. zb.(d)) /. h.Gpr.lengths.(d) in
      s := !s +. (u *. u)
    done;
    h.Gpr.signal2 *. exp (-0.5 *. !s)
  in
  let pts = Input_space.fitting_points tech ~k:3 in
  let x0 = pts.(0) and x1 = pts.(1) and xq = pts.(2) in
  (* One point. *)
  let y0 = 3.0 in
  let t1 = Gpr.fit ~hyper:h tech [| x0 |] [| y0 |] in
  let m = y0 in
  let denom = kern x0 x0 +. h.Gpr.noise2 in
  check_close ~tol:1e-12 "1-pt mean"
    (m +. (kern xq x0 *. (y0 -. m) /. denom))
    (Gpr.predict t1 xq);
  check_close ~tol:1e-12 "1-pt var"
    (kern xq xq -. (kern xq x0 *. kern xq x0 /. denom))
    (Gpr.predict_var t1 xq);
  (* Two points: solve (K + noise2 I) alpha = y - m by hand. *)
  let y = [| 3.0; 5.0 |] in
  let t2 = Gpr.fit ~hyper:h tech [| x0; x1 |] y in
  let m = 0.5 *. (y.(0) +. y.(1)) in
  let a = kern x0 x0 +. h.Gpr.noise2
  and b = kern x0 x1
  and d = kern x1 x1 +. h.Gpr.noise2 in
  let det = (a *. d) -. (b *. b) in
  let r0 = y.(0) -. m and r1 = y.(1) -. m in
  let al0 = ((d *. r0) -. (b *. r1)) /. det in
  let al1 = ((a *. r1) -. (b *. r0)) /. det in
  let k0 = kern xq x0 and k1 = kern xq x1 in
  check_close ~tol:1e-12 "2-pt mean"
    (m +. (k0 *. al0) +. (k1 *. al1))
    (Gpr.predict t2 xq);
  let kinv_k0 = ((d *. k0) -. (b *. k1)) /. det in
  let kinv_k1 = ((a *. k1) -. (b *. k0)) /. det in
  check_close ~tol:1e-12 "2-pt var"
    (kern xq xq -. ((k0 *. kinv_k0) +. (k1 *. kinv_k1)))
    (Gpr.predict_var t2 xq);
  (* refit rebuilds the posterior bitwise from the serializable model. *)
  let t2' = Gpr.refit tech (Gpr.model t2) in
  Alcotest.(check bool) "refit bitwise" true
    (Int64.bits_of_float (Gpr.predict t2 xq)
    = Int64.bits_of_float (Gpr.predict t2' xq));
  Alcotest.(check bool) "variance non-negative" true
    (Gpr.predict_var t2 x0 >= 0.0)

(* GPR fallback gate: a dataset whose response the 4-parameter form
   cannot represent must trip the fallback under a tight threshold (the
   predictor becomes "model+gpr" and reproduces its training targets far
   better), and must NOT trip it under a loose threshold. *)
let test_gpr_fallback_threshold () =
  let pair = Lazy.force tiny_prior_pair in
  let points = Input_space.fitting_points tech ~k:7 in
  (* Oscillatory multiplicative wobble on a plausible delay scale: no
     (kd, cpar, v_off, alpha) reproduces it. *)
  let synth i (p : Harness.point) =
    20e-12
    *. (1.0 +. (0.5 *. sin (7.0 *. float_of_int i)))
    *. (1.0 +. (p.Harness.cload /. 10e-15))
  in
  let ds =
    {
      Char_flow.arc = inv_fall;
      points;
      td = Array.mapi synth points;
      sout = Array.mapi (fun i p -> 1.4 *. synth i p) points;
      cost = Array.length points;
    }
  in
  let p = Char_flow.train_bayes_on ~prior:pair tech ds in
  let analytical_err =
    let e = Char_flow.evaluate p ds in
    Float.max e.Char_flow.td_err e.Char_flow.sout_err
  in
  Alcotest.(check bool) "synthetic data defeats the analytical form" true
    (analytical_err > 0.05);
  let loose = Char_flow.with_gpr_fallback ~threshold:(2.0 *. analytical_err) tech ds p in
  Alcotest.(check string) "loose threshold keeps analytical model"
    p.Char_flow.label loose.Char_flow.label;
  let tight = Char_flow.with_gpr_fallback ~threshold:0.01 tech ds p in
  Alcotest.(check string) "tight threshold swaps in GPR" "model+gpr"
    tight.Char_flow.label;
  let gpr_err =
    let e = Char_flow.evaluate tight ds in
    Float.max e.Char_flow.td_err e.Char_flow.sout_err
  in
  Alcotest.(check bool) "GPR reproduces its training set better" true
    (gpr_err < 0.1 *. analytical_err)

(* The adaptive design is a pure function of (seeds, a_rng, arc): two
   runs agree bitwise, the worker pool cannot perturb it, and the
   caller's generator is only split, never advanced. *)
let test_statistical_adaptive_design_deterministic () =
  let pair = Lazy.force tiny_prior_pair in
  let rng = Slc_prob.Rng.create 7 in
  let seeds = Slc_device.Process.sample_batch rng tech 3 in
  let design () =
    Statistical.Adaptive
      (Statistical.adaptive_defaults (Slc_prob.Rng.create 55))
  in
  let run () =
    Statistical.extract_population_design ~design:(design ())
      ~method_:(Statistical.Bayes pair) ~tech ~arc:inv_fall ~seeds ~budget:3 ()
  in
  let pop1 = run () in
  let pop2 = run () in
  let pop_seq = Slc_num.Parallel.sequential run in
  Alcotest.(check int) "train cost = seeds*budget" 9
    pop1.Statistical.train_cost;
  let pt = { Harness.sin = 6e-12; cload = 3e-15; vdd = 0.85 } in
  let pred (pop : Statistical.population) =
    Array.map (fun s -> pop.Statistical.predict_td s pt) seeds
  in
  let p1 = pred pop1 and p2 = pred pop2 and ps = pred pop_seq in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "reproducible" true
        (Int64.bits_of_float v = Int64.bits_of_float p2.(i));
      Alcotest.(check bool) "pool matches sequential" true
        (Int64.bits_of_float v = Int64.bits_of_float ps.(i)))
    p1;
  (* The supplied generator was only ever split, never advanced. *)
  let probe = Slc_prob.Rng.create 55 in
  let design_rng = Slc_prob.Rng.create 55 in
  ignore
    (Statistical.extract_population_design
       ~design:(Statistical.Adaptive (Statistical.adaptive_defaults design_rng))
       ~method_:(Statistical.Bayes pair) ~tech ~arc:inv_fall ~seeds ~budget:2 ());
  Alcotest.(check bool) "design rng unperturbed" true
    (Slc_prob.Rng.uint64 design_rng = Slc_prob.Rng.uint64 probe);
  (* A different candidate-pool generator yields different fits. *)
  let other =
    Statistical.extract_population_design
      ~design:
        (Statistical.Adaptive
           (Statistical.adaptive_defaults (Slc_prob.Rng.create 56)))
      ~method_:(Statistical.Bayes pair) ~tech ~arc:inv_fall ~seeds ~budget:3 ()
  in
  Alcotest.(check bool) "different design differs" true (pred other <> p1);
  (* Budget above the candidate pool is rejected up front (the raise
     carries run context, so match on site/detail rather than the
     exact value). *)
  (match
     Statistical.extract_population_design
       ~design:
         (Statistical.Adaptive
            {
              (Statistical.adaptive_defaults (Slc_prob.Rng.create 1)) with
              Statistical.a_candidates = 8;
            })
       ~method_:(Statistical.Bayes pair) ~tech ~arc:inv_fall ~seeds ~budget:9
       ()
   with
  | _ -> Alcotest.fail "budget > candidates was accepted"
  | exception Slc_obs.Slc_error.Invalid_input iv ->
    Alcotest.(check string) "rejection site"
      "Statistical.extract_population" iv.Slc_obs.Slc_error.iv_site;
    Alcotest.(check string) "rejection detail"
      "adaptive candidate pool smaller than the budget"
      iv.Slc_obs.Slc_error.iv_detail)

(* Graceful degradation: injected simulation faults must cost only the
   affected (seed, point) pairs.  Unaffected seeds take the identical
   code path, so their fits are BITWISE equal to a failure-free run;
   a seed losing a minority of points degrades; a seed losing too many
   fails and is skipped by predict_samples. *)
let test_statistical_degradation () =
  let module Telemetry = Slc_obs.Telemetry in
  let pair = Lazy.force tiny_prior_pair in
  let rng = Slc_prob.Rng.create 99 in
  let seeds = Slc_device.Process.sample_batch rng tech 4 in
  let budget = 3 in
  let clean =
    Statistical.extract_population ~method_:(Statistical.Bayes pair) ~tech
      ~arc:inv_fall ~seeds ~budget ()
  in
  Array.iter
    (fun st ->
      Alcotest.(check bool) "clean run: all seeds ok" true
        (st = Statistical.Seed_ok))
    clean.Statistical.status;
  (* Fault plan: seed 1 loses its first design point (degraded), seed 2
     loses everything (failed). *)
  let pts = Input_space.fitting_points tech ~k:budget in
  Harness.set_fault_injector
    (Some
       (fun s (p : Harness.point) ->
         (s.Slc_device.Process.index = 1 && p = pts.(0))
         || s.Slc_device.Process.index = 2));
  let was_on = Telemetry.on () in
  Telemetry.enable ();
  Telemetry.reset ();
  let before = Harness.sim_count () in
  let pop =
    Fun.protect
      ~finally:(fun () -> Harness.set_fault_injector None)
      (fun () ->
        Statistical.extract_population ~method_:(Statistical.Bayes pair) ~tech
          ~arc:inv_fall ~seeds ~budget ())
  in
  let sims_run = Harness.sim_count () - before in
  (* The telemetry counter and the global cost metric must reconcile:
     injected faults fire before either is bumped. *)
  Alcotest.(check int) "telemetry reconciles with sim_count" sims_run
    (Telemetry.read Telemetry.simulations);
  Alcotest.(check int) "one degraded seed counted" 1
    (Telemetry.read Telemetry.degraded_seeds);
  Alcotest.(check int) "one failed seed counted" 1
    (Telemetry.read Telemetry.failed_seeds);
  if not was_on then Telemetry.disable ();
  (* Per-seed statuses. *)
  Alcotest.(check bool) "seed 0 ok" true
    (pop.Statistical.status.(0) = Statistical.Seed_ok);
  Alcotest.(check bool) "seed 1 degraded by one point" true
    (pop.Statistical.status.(1) = Statistical.Seed_degraded 1);
  (match pop.Statistical.status.(2) with
  | Statistical.Seed_failed (Slc_obs.Slc_error.No_convergence _) -> ()
  | _ -> Alcotest.fail "seed 2 should be Seed_failed with the typed cause");
  Alcotest.(check bool) "seed 3 ok" true
    (pop.Statistical.status.(3) = Statistical.Seed_ok);
  (* Unaffected seeds: bitwise-identical predictions. *)
  let pt = { Harness.sin = 6e-12; cload = 3e-15; vdd = 0.85 } in
  List.iter
    (fun i ->
      let v = pop.Statistical.predict_td seeds.(i) pt in
      let v' = clean.Statistical.predict_td seeds.(i) pt in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d prediction bitwise identical" i)
        true
        (Int64.bits_of_float v = Int64.bits_of_float v'))
    [ 0; 3 ];
  (* The degraded seed still predicts (from its surviving points). *)
  Alcotest.(check bool) "degraded seed predicts" true
    (pop.Statistical.predict_td seeds.(1) pt > 0.0);
  (* The failed seed re-raises its cause on prediction... *)
  (match pop.Statistical.predict_td seeds.(2) pt with
  | _ -> Alcotest.fail "failed seed should raise"
  | exception Slc_obs.Slc_error.No_convergence _ -> ());
  (* ...and is skipped by predict_samples. *)
  Alcotest.(check int) "samples over surviving seeds" 3
    (Array.length (Statistical.predict_samples pop pt ~td:true))

(* The Monte-Carlo baseline under a fully-failing seed: the failed
   pairs are recorded, and the surviving moments are bitwise what a
   baseline over only the surviving seeds computes. *)
let test_baseline_degradation () =
  let rng = Slc_prob.Rng.create 99 in
  let seeds = Slc_device.Process.sample_batch rng tech 4 in
  let points = Input_space.validation_set ~n:2 ~seed:6 tech in
  Harness.set_fault_injector
    (Some (fun s _ -> s.Slc_device.Process.index = 2));
  let base =
    Fun.protect
      ~finally:(fun () -> Harness.set_fault_injector None)
      (fun () ->
        Statistical.monte_carlo_baseline ~tech ~arc:inv_fall ~seeds ~points)
  in
  Alcotest.(check int) "one failed pair per point" 2
    (List.length base.Statistical.failed);
  List.iter
    (fun (_, si) -> Alcotest.(check int) "failed seed index" 2 si)
    base.Statistical.failed;
  Array.iteri
    (fun i row ->
      Alcotest.(check bool) "failed slot is NaN" true
        (Float.is_nan row.(2));
      Alcotest.(check bool)
        (Printf.sprintf "point %d other slots finite" i)
        true
        (Float.is_finite row.(0) && Float.is_finite row.(1)
       && Float.is_finite row.(3)))
    base.Statistical.samples_td;
  (* Survivor moments match a clean baseline over the surviving seeds. *)
  let survivors = [| seeds.(0); seeds.(1); seeds.(3) |] in
  let base' =
    Statistical.monte_carlo_baseline ~tech ~arc:inv_fall ~seeds:survivors
      ~points
  in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "survivor mu bitwise" true
        (Int64.bits_of_float v
        = Int64.bits_of_float base'.Statistical.mu_td.(i));
      Alcotest.(check bool) "survivor sigma bitwise" true
        (Int64.bits_of_float base.Statistical.sigma_td.(i)
        = Int64.bits_of_float base'.Statistical.sigma_td.(i)))
    base.Statistical.mu_td

(* ------------------------------------------------------------------ *)
(* Config / Report *)

let test_config_scaling () =
  let c1 = Config.with_scale 1.0 and c2 = Config.with_scale 2.0 in
  Alcotest.(check int) "validation doubles" (2 * c1.Config.n_validation)
    c2.Config.n_validation;
  Alcotest.check_raises "bad scale"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Config.with_scale" "scale must be > 0")) (fun () ->
      ignore (Config.with_scale 0.0))

let test_report_series_and_formats () =
  Alcotest.(check string) "ps format" "12.00ps" (Report.ps 12e-12)

let test_prior_summary_renders () =
  let pair = Lazy.force tiny_prior_pair in
  let s = Format.asprintf "%a" Prior.pp_summary pair.Prior.delay in
  Alcotest.(check bool) "mentions provenance" true (String.length s > 200)

(* The chain's message is a valid Gaussian, as chain_prior builds it. *)
let test_belief_to_mvn () =
  let msg = Belief.chain [ ("n", [||]) ] in
  let m = Slc_prob.Mvn.make ~mu:msg.Belief.mu ~cov:msg.Belief.cov in
  Alcotest.(check int) "dim" 4 (Array.length m.Slc_prob.Mvn.mu)

let test_of_vec_wrong_length () =
  Alcotest.check_raises "3 coords"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Timing_model.of_vec" "need 4 coords")) (fun () ->
      ignore (Timing_model.of_vec [| 1.0; 2.0; 3.0 |]))

let test_prior_io_rejects_future_version () =
  let pair = Lazy.force tiny_prior_pair in
  let text = Prior_io.to_string pair in
  let v2 = "slc-prior 2" ^ String.sub text 11 (String.length text - 11) in
  match Prior_io.parse v2 with
  | exception Slc_num.Line_reader.Malformed _ -> ()
  | _ -> Alcotest.fail "version 2 should be rejected"

let test_report_table_and_bar () =
  let s =
    Format.asprintf "%a"
      (fun ppf () ->
        Report.table ppf ~header:[ "a"; "b" ] [ [ "1"; "22" ]; [ "333"; "4" ] ])
      ()
  in
  Alcotest.(check bool) "renders rows" true (String.length s > 10);
  Alcotest.(check string) "full bar" "####" (Report.bar ~width:4 1.0 1.0);
  Alcotest.(check string) "empty bar" "    " (Report.bar ~width:4 0.0 1.0);
  Alcotest.(check string) "pct" "12.34%" (Report.pct 0.1234)

(* ------------------------------------------------------------------ *)
(* Rsm *)

let test_rsm_degree_adapts () =
  let mk n =
    let pts = Input_space.fitting_points tech ~k:n in
    Array.map (fun p -> (p, 1e-11 +. (1e-12 *. p.Harness.vdd))) pts
  in
  Alcotest.(check int) "constant" 0 (Rsm.degree (Rsm.fit tech (mk 2)));
  Alcotest.(check int) "linear" 1 (Rsm.degree (Rsm.fit tech (mk 5)));
  Alcotest.(check int) "quadratic" 2 (Rsm.degree (Rsm.fit tech (mk 12)))

let test_rsm_exact_on_polynomial_data () =
  (* Quadratic RSM recovers data generated by a quadratic in the
     normalized coordinates. *)
  let f u = 1e-11 *. (1.0 +. (0.5 *. u.(0)) +. (0.3 *. u.(1) *. u.(1)) -. (0.2 *. u.(0) *. u.(2))) in
  let pts = Input_space.fitting_points tech ~k:20 in
  let samples =
    Array.map (fun p -> (p, f (Input_space.normalize tech p))) pts
  in
  let r = Rsm.fit tech samples in
  let worst =
    Array.fold_left
      (fun acc (p, y) -> Float.max acc (Float.abs ((Rsm.eval r p -. y) /. y)))
      0.0 samples
  in
  Alcotest.(check bool) "exact fit" true (worst < 1e-8)

let test_rsm_predictor_runs () =
  let p = Char_flow.train_rsm tech inv_fall ~k:10 in
  let pt = { Harness.sin = 6e-12; cload = 3e-15; vdd = 0.85 } in
  Alcotest.(check bool) "positive delay" true (p.Char_flow.predict_td pt > 0.0);
  Alcotest.(check int) "cost" 10 p.Char_flow.train_cost

let test_rsm_rejects_bad_input () =
  Alcotest.check_raises "empty" (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Rsm.fit" "no samples"))
    (fun () -> ignore (Rsm.fit tech [||]));
  let pts = Input_space.fitting_points tech ~k:2 in
  Alcotest.check_raises "negative"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Rsm.fit" "non-positive value")) (fun () ->
      ignore (Rsm.fit tech (Array.map (fun p -> (p, -1.0)) pts)))

(* ------------------------------------------------------------------ *)
(* Prior_io *)

let test_prior_roundtrip () =
  let pair = Lazy.force tiny_prior_pair in
  let text = Prior_io.to_string pair in
  let back = Prior_io.parse text in
  (* Mean and covariance survive bit-exactly (printed with %.17g). *)
  Alcotest.(check bool) "mu" true
    (Helpers.vec_close ~tol:0.0
       (pair.Prior.delay.Prior.mvn : Mvn.t).Mvn.mu
       (back.Prior.delay.Prior.mvn : Mvn.t).Mvn.mu);
  Alcotest.(check bool) "cov" true
    (Helpers.mat_close ~tol:1e-18 pair.Prior.delay.Prior.mvn.Mvn.cov
       back.Prior.delay.Prior.mvn.Mvn.cov);
  Alcotest.(check int) "provenance count"
    (List.length pair.Prior.delay.Prior.provenance)
    (List.length back.Prior.delay.Prior.provenance);
  Alcotest.(check int) "cost" pair.Prior.delay.Prior.learn_cost
    back.Prior.delay.Prior.learn_cost;
  (* beta lookups agree at arbitrary points. *)
  let pt = { Harness.sin = 6e-12; cload = 3e-15; vdd = 0.85 } in
  Alcotest.(check (float 1e-9)) "beta"
    (Prior.beta_at pair.Prior.delay tech pt)
    (Prior.beta_at back.Prior.delay tech pt);
  (* A MAP fit from the reloaded prior matches the original. *)
  let obs = synthetic_obs p_true 3 in
  let a = Map_fit.fit_params ~prior:pair.Prior.delay ~tech obs in
  let b = Map_fit.fit_params ~prior:back.Prior.delay ~tech obs in
  Alcotest.(check bool) "same MAP result" true
    (Helpers.vec_close ~tol:1e-9 (Timing_model.to_vec a) (Timing_model.to_vec b))

let test_prior_io_errors () =
  let bad s =
    match Prior_io.parse s with
    | exception Slc_num.Line_reader.Malformed _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad header" true (bad "nope");
  Alcotest.(check bool) "truncated" true (bad "slc-prior 1\nmetric delay\n");
  let pair = Lazy.force tiny_prior_pair in
  let text = Prior_io.to_string pair in
  (* Corrupt the first mu value. *)
  let idx =
    let rec find i =
      if String.sub text i 3 = "mu " then i else find (i + 1)
    in
    find 0
  in
  let corrupted =
    String.sub text 0 (idx + 3) ^ "zz "
    ^ String.sub text (idx + 3) (String.length text - idx - 3)
  in
  Alcotest.(check bool) "corrupted float" true (bad corrupted)

let test_prior_io_file () =
  let pair = Lazy.force tiny_prior_pair in
  let path = Filename.temp_file "slc_prior" ".txt" in
  Prior_io.save path pair;
  let back = Prior_io.load path in
  Sys.remove path;
  Alcotest.(check int) "provenance"
    (List.length pair.Prior.slew.Prior.provenance)
    (List.length back.Prior.slew.Prior.provenance)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_model_monotone_in_cload =
  QCheck.Test.make ~name:"model delay monotone in cload" ~count:100
    QCheck.(pair (float_range 0.5 6.0) (float_range 0.7 1.0))
    (fun (cl_fF, vdd) ->
      let p1 = { Harness.sin = 5e-12; cload = cl_fF *. 1e-15; vdd } in
      let p2 = { p1 with Harness.cload = (cl_fF +. 1.0) *. 1e-15 } in
      Timing_model.eval p_true ~ieff:40e-6 p2
      > Timing_model.eval p_true ~ieff:40e-6 p1)

let prop_model_scales_inversely_with_ieff =
  QCheck.Test.make ~name:"model delay inversely proportional to ieff"
    ~count:100
    QCheck.(float_range 1.0 100.0)
    (fun scale ->
      let pt = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 } in
      let base = Timing_model.eval p_true ~ieff:1e-5 pt in
      let scaled = Timing_model.eval p_true ~ieff:(1e-5 *. scale) pt in
      Float.abs ((scaled *. scale) -. base) < 1e-12 *. base +. 1e-22)

let prop_lse_exact_on_model_data =
  QCheck.Test.make ~name:"LSE recovers random generating parameters"
    ~count:20
    QCheck.(quad (float_range 0.2 0.6) (float_range 0.3 2.0)
              (float_range (-0.3) (-0.05)) (float_range 0.01 0.2))
    (fun (kd, cpar, v_off, alpha) ->
      let truth = { Timing_model.kd; cpar; v_off; alpha } in
      let obs = synthetic_obs truth 12 in
      let fit = Extract_lse.fit obs in
      Extract_lse.avg_abs_rel_error fit obs < 1e-5)

let () =
  Alcotest.run "slc_core"
    [
      ( "timing_model",
        [
          Alcotest.test_case "closed form" `Quick test_eval_formula;
          Alcotest.test_case "vec roundtrip" `Quick test_vec_roundtrip;
          Alcotest.test_case "gradient matches numeric" `Quick
            test_grad_matches_numeric;
          Alcotest.test_case "relative residual" `Quick test_rel_residual;
          Alcotest.test_case "rejects bad ieff" `Quick test_eval_rejects_bad_ieff;
        ] );
      ( "input_space",
        [
          Alcotest.test_case "normalize roundtrip" `Quick test_normalize_roundtrip;
          Alcotest.test_case "validation determinism" `Quick
            test_validation_set_deterministic;
          Alcotest.test_case "fitting points" `Quick test_fitting_points_properties;
          Alcotest.test_case "unit grid" `Quick test_unit_grid_shape;
        ] );
      ( "extract_lse",
        [
          Alcotest.test_case "recovers synthetic parameters" `Quick
            test_lse_recovers_synthetic;
          Alcotest.test_case "weights" `Quick test_lse_weighted;
          Alcotest.test_case "input validation" `Quick
            test_lse_rejects_empty_and_bad;
        ] );
      ( "prior",
        [
          Alcotest.test_case "structure" `Slow test_prior_structure;
          Alcotest.test_case "mean plausible" `Slow test_prior_mean_plausible;
          Alcotest.test_case "beta positive" `Slow test_beta_positive_everywhere;
          Alcotest.test_case "beta floored" `Slow test_beta_floor_caps_precision;
          Alcotest.test_case "constant beta ablation" `Slow
            test_constant_beta_flattens;
          Alcotest.test_case "requires history" `Quick test_prior_requires_history;
        ] );
      ( "map_fit",
        [
          Alcotest.test_case "no data = prior mean" `Slow
            test_map_no_observations_returns_prior_mean;
          Alcotest.test_case "lots of data = truth" `Slow
            test_map_converges_to_truth_with_data;
          Alcotest.test_case "beats LSE at k=2" `Slow test_map_beats_lse_at_small_k;
          Alcotest.test_case "posterior decomposition" `Slow
            test_map_posterior_decomposition;
        ] );
      ( "belief",
        [
          Alcotest.test_case "observe shrinks covariance" `Quick
            test_belief_observe_shrinks_cov;
          Alcotest.test_case "drift grows covariance" `Quick
            test_belief_drift_grows_cov;
          Alcotest.test_case "chain prior" `Slow test_belief_chain_and_prior;
          Alcotest.test_case "empty chain" `Quick test_belief_empty_chain_rejected;
          Alcotest.test_case "chain golden bits" `Quick
            test_belief_chain_golden_bits;
        ] );
      ( "gpr",
        [
          Alcotest.test_case "closed-form posterior" `Quick test_gpr_closed_form;
          Alcotest.test_case "fallback threshold" `Slow
            test_gpr_fallback_threshold;
        ] );
      ( "char_flow",
        [
          Alcotest.test_case "budget_to_reach" `Quick test_budget_to_reach;
          Alcotest.test_case "speedup_vs" `Quick test_speedup_vs;
          Alcotest.test_case "lut cost within budget" `Quick
            test_train_lut_cost_within_budget;
          Alcotest.test_case "predictor positive" `Slow test_predictor_positive;
          Alcotest.test_case "model predictor Ieff memo (bitwise)" `Quick
            test_model_predictor_ieff_memo;
        ] );
      ( "model_ext",
        [
          Alcotest.test_case "reduces to base model" `Quick
            test_model_ext_reduces_to_base;
          Alcotest.test_case "gradient matches numeric" `Quick
            test_model_ext_grad_matches_numeric;
          Alcotest.test_case "fit recovers cross term" `Quick
            test_model_ext_fit_recovers_gamma;
        ] );
      ( "designs",
        [
          Alcotest.test_case "random fitting points" `Quick
            test_random_fitting_points;
          Alcotest.test_case "points override checked" `Slow
            test_points_override_length_checked;
        ] );
      ( "statistical",
        [
          Alcotest.test_case "tiny statistical flow" `Slow test_statistical_tiny;
          Alcotest.test_case "pooled bitwise equals sequential" `Slow
            test_statistical_pool_bitwise_sequential;
          Alcotest.test_case "random design deterministic" `Slow
            test_statistical_random_design_deterministic;
          Alcotest.test_case "adaptive design deterministic" `Slow
            test_statistical_adaptive_design_deterministic;
          Alcotest.test_case "graceful degradation" `Slow
            test_statistical_degradation;
          Alcotest.test_case "baseline degradation" `Slow
            test_baseline_degradation;
        ] );
      ( "rsm",
        [
          Alcotest.test_case "degree adapts to budget" `Quick
            test_rsm_degree_adapts;
          Alcotest.test_case "exact on polynomial data" `Quick
            test_rsm_exact_on_polynomial_data;
          Alcotest.test_case "predictor runs" `Slow test_rsm_predictor_runs;
          Alcotest.test_case "input validation" `Quick
            test_rsm_rejects_bad_input;
        ] );
      ( "prior_io",
        [
          Alcotest.test_case "roundtrip" `Slow test_prior_roundtrip;
          Alcotest.test_case "errors" `Slow test_prior_io_errors;
          Alcotest.test_case "file save/load" `Slow test_prior_io_file;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_model_monotone_in_cload;
          QCheck_alcotest.to_alcotest prop_model_scales_inversely_with_ieff;
          QCheck_alcotest.to_alcotest prop_lse_exact_on_model_data;
        ] );
      ( "config_report",
        [
          Alcotest.test_case "config scaling" `Quick test_config_scaling;
          Alcotest.test_case "report rendering" `Quick test_report_table_and_bar;
          Alcotest.test_case "series rendering" `Quick
            test_report_series_and_formats;
          Alcotest.test_case "prior summary" `Slow test_prior_summary_renders;
          Alcotest.test_case "belief to_mvn" `Quick test_belief_to_mvn;
          Alcotest.test_case "of_vec length checks" `Quick
            test_of_vec_wrong_length;
          Alcotest.test_case "prior_io version check" `Slow
            test_prior_io_rejects_future_version;
        ] );
    ]
