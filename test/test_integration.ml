(* End-to-end integration tests: miniature versions of the paper's
   experiments, checking the qualitative conclusions (who wins, what
   shape) rather than exact numbers. *)

open Slc_core
module Tech = Slc_device.Tech
module Cells = Slc_cell.Cells
module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness

(* Miniature experiment sizes: every driver finishes in seconds. *)
let tiny =
  {
    Config.scale = 0.05;
    n_validation = 20;
    n_validation_stat = 5;
    n_seeds = 6;
    n_seeds_fig9 = 8;
    ks = [ 2; 5 ];
    lut_budgets = [ 4; 12 ];
    ks_stat = [ 2 ];
    lut_budgets_stat = [ 4 ];
    rng_seed = 7;
  }

(* One shared small prior for all integration tests: 2 historical
   nodes, INV + NOR2, 3x3x2 grid. *)
let prior =
  lazy
    (Prior.learn_pair
       ~cells:[ Cells.inv; Cells.nor2 ]
       ~grid_levels:[| 3; 3; 2 |]
       ~historical:[ Tech.n20; Tech.n28 ] ())

let test_table1_shape () =
  let rows = Exp_model.table1 ~techs:[ Tech.n14; Tech.n45 ] ~cells:[ Cells.inv ] () in
  Alcotest.(check int) "2 rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "fit error < 4%" true (r.Exp_model.fit_error < 0.04);
      let p = r.Exp_model.params in
      Alcotest.(check bool) "kd plausible" true
        (p.Timing_model.kd > 0.15 && p.Timing_model.kd < 0.7);
      Alcotest.(check bool) "v_off negative" true (p.Timing_model.v_off < 0.0);
      Alcotest.(check bool) "alpha positive" true (p.Timing_model.alpha > 0.0))
    rows;
  (* Cross-node similarity: kd within 30% between the two nodes. *)
  match rows with
  | [ a; b ] ->
    let ka = a.Exp_model.params.Timing_model.kd in
    let kb = b.Exp_model.params.Timing_model.kd in
    Alcotest.(check bool) "kd similar across nodes" true
      (Float.abs (ka -. kb) /. ka < 0.3)
  | _ -> Alcotest.fail "expected two rows"

let test_fig2_invariance () =
  let series = Exp_model.fig2 ~n_vdd:4 () in
  Alcotest.(check bool) "several series" true (List.length series >= 8);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Exp_model.label ^ " nearly constant")
        true
        (s.Exp_model.deviation < 0.10))
    series

let test_fig3_invariance () =
  let series = Exp_model.fig3 () in
  Alcotest.(check bool) "six series" true (List.length series = 6);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Exp_model.label ^ " nearly constant")
        true
        (s.Exp_model.deviation < 0.12))
    series

let test_fig5_spread () =
  let s = Exp_nominal.fig5 ~n:200 ~seed:3 Tech.n28 in
  let slo, shi = Tech.n28.Tech.sin_range in
  Alcotest.(check bool) "sin covers range" true
    (s.Exp_nominal.sin_min < slo +. (0.1 *. (shi -. slo))
    && s.Exp_nominal.sin_max > shi -. (0.1 *. (shi -. slo)))

let test_fig6_mini_conclusions () =
  let config =
    {
      tiny with
      Config.n_validation = 40;
      ks = [ 2; 10 ];
      lut_budgets = [ 4; 12; 48 ];
    }
  in
  let r =
    Exp_nominal.fig6 ~config ~cells:[ Cells.inv; Cells.nor2 ]
      ~prior:(Lazy.force prior) ()
  in
  let bayes_k2 = r.Exp_nominal.bayes_td.Exp_nominal.mean_err.(0) in
  let lut_4 = r.Exp_nominal.lut_td.Exp_nominal.mean_err.(0) in
  let lut_12 = r.Exp_nominal.lut_td.Exp_nominal.mean_err.(1) in
  (* The paper's core claim, miniaturized: 2 Bayes samples beat small
     LUTs by a wide margin. *)
  Alcotest.(check bool)
    (Printf.sprintf "bayes@2 (%.3f) beats lut@4 (%.3f)" bayes_k2 lut_4)
    true (bayes_k2 < lut_4);
  Alcotest.(check bool)
    (Printf.sprintf "bayes@2 (%.3f) beats lut@12 (%.3f)" bayes_k2 lut_12)
    true (bayes_k2 < lut_12);
  Alcotest.(check bool) "bayes@2 under 8%" true (bayes_k2 < 0.08);
  (* Speedup factor is materially > 1. *)
  (match r.Exp_nominal.speedup_vs_lut with
  | Char_flow.Reached s | Char_flow.At_least s ->
    Alcotest.(check bool) (Printf.sprintf "speedup %.1f > 3" s) true (s > 3.0));
  (* Cost accounting is consistent. *)
  Alcotest.(check bool) "baseline cost = arcs x n" true
    (r.Exp_nominal.baseline_cost = 6 * 40)

let test_fig78_mini_conclusions () =
  let config =
    {
      tiny with
      Config.n_validation_stat = 4;
      n_seeds = 8;
      ks_stat = [ 2 ];
      lut_budgets_stat = [ 4 ];
    }
  in
  let arcs = [ Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall ] in
  let r = Exp_statistical.fig78 ~config ~arcs ~prior:(Lazy.force prior) () in
  let b = r.Exp_statistical.bayes in
  let l = r.Exp_statistical.lut in
  Alcotest.(check bool)
    (Printf.sprintf "bayes mu (%.3f) beats lut@4 mu (%.3f)"
       b.Exp_statistical.e_mu_td.(0) l.Exp_statistical.e_mu_td.(0))
    true
    (b.Exp_statistical.e_mu_td.(0) < l.Exp_statistical.e_mu_td.(0));
  Alcotest.(check bool) "bayes mu error small" true
    (b.Exp_statistical.e_mu_td.(0) < 0.10)

let test_fig9_mini () =
  let config = { tiny with Config.n_seeds_fig9 = 24 } in
  let r = Exp_statistical.fig9 ~config ~prior:(Lazy.force prior) () in
  Alcotest.(check int) "grid points" 80 (Array.length r.Exp_statistical.grid);
  (* The proposed method should track the baseline at least as well as
     the LUT interpolation at this low-Vdd corner point. *)
  Alcotest.(check bool)
    (Printf.sprintf "KS bayes (%.3f) <= KS lut (%.3f) + slack"
       r.Exp_statistical.ks_bayes r.Exp_statistical.ks_lut)
    true
    (r.Exp_statistical.ks_bayes <= r.Exp_statistical.ks_lut +. 0.15);
  (* Densities are proper (positive mass). *)
  let mass ys =
    Helpers.trapezoid ~xs:r.Exp_statistical.grid ~ys
  in
  Alcotest.(check bool) "baseline mass ~1" true
    (Float.abs (mass r.Exp_statistical.pdf_baseline -. 1.0) < 0.1);
  Alcotest.(check bool) "bayes cheaper than lut" true
    (r.Exp_statistical.cost_bayes < r.Exp_statistical.cost_lut)

let test_ablation_beta_runs () =
  let config = tiny in
  let rows = Exp_ablation.ablation_beta ~config ~prior:(Lazy.force prior) () in
  Alcotest.(check bool) "rows for both variants" true (List.length rows >= 2);
  List.iter
    (fun r ->
      Alcotest.(check bool) "error sane" true
        (r.Exp_ablation.td_err >= 0.0 && r.Exp_ablation.td_err < 1.0))
    rows

let test_ablation_chain_runs () =
  let config = tiny in
  let rows = Exp_ablation.ablation_chain ~config ~prior:(Lazy.force prior) () in
  Alcotest.(check bool) "has pooled and chained" true (List.length rows >= 2)

let test_experiment_printers () =
  (* All printers render without exceptions on miniature results. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let rows = Exp_model.table1 ~techs:[ Tech.n14 ] ~cells:[ Cells.inv ] () in
  Exp_model.print_table1 ppf rows;
  Exp_nominal.print_fig5 ppf (Exp_nominal.fig5 ~n:10 ~seed:1 Tech.n14);
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "printed something" true (Buffer.length buf > 100)

let test_vt_transfer_extension () =
  let config = { tiny with Config.n_validation = 60 } in
  let r = Exp_extension.vt_transfer ~config ~k:2 ~lut_budget:12 () in
  Alcotest.(check string) "target renamed" "n14-lvt" r.Exp_extension.target_name;
  (* All three errors are sane percentages. *)
  List.iter
    (fun e -> Alcotest.(check bool) "sane" true (e > 0.0 && e < 0.5))
    [
      r.Exp_extension.err_rvt_prior; r.Exp_extension.err_matched_prior;
      r.Exp_extension.err_lut;
    ];
  (* The flavor-matched prior is at least as good as the mismatched
     one (allowing a little estimation noise). *)
  Alcotest.(check bool)
    (Printf.sprintf "matched (%.3f) <= mismatched (%.3f) + slack"
       r.Exp_extension.err_matched_prior r.Exp_extension.err_rvt_prior)
    true
    (r.Exp_extension.err_matched_prior
     <= r.Exp_extension.err_rvt_prior +. 0.01)

let test_sampling_ablation_runs () =
  let rows = Exp_ablation.ablation_sampling ~n_seeds:12 ~n_reps:2 () in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "ratio near 1" true
        (r.Exp_ablation.mean_ratio > 0.5 && r.Exp_ablation.mean_ratio < 1.5);
      Alcotest.(check bool) "sd sane" true
        (r.Exp_ablation.rep_sd >= 0.0 && r.Exp_ablation.rep_sd < 1.0))
    rows

let test_golden_parameter_ranges () =
  (* Physics-drift guard: the canonical n14 INV/A/fall extraction must
     stay inside these loose golden ranges (they bracket the values in
     EXPERIMENTS.md with margin; a change that escapes them indicates a
     substrate regression, not noise). *)
  let rows = Exp_model.table1 ~techs:[ Tech.n14 ] ~cells:[ Cells.inv ] () in
  match rows with
  | [ r ] ->
    let p = r.Exp_model.params in
    let check name lo hi v =
      Alcotest.(check bool)
        (Printf.sprintf "%s in [%g, %g] (got %g)" name lo hi v)
        true (v >= lo && v <= hi)
    in
    check "kd" 0.25 0.40 p.Timing_model.kd;
    check "cpar" 0.35 0.80 p.Timing_model.cpar;
    check "v_off" (-0.30) (-0.08) p.Timing_model.v_off;
    check "alpha" 0.01 0.10 p.Timing_model.alpha;
    check "fit error" 0.0 0.03 r.Exp_model.fit_error
  | _ -> Alcotest.fail "expected one row"

let test_full_flow_cost_model () =
  (* O(k * Nsample) vs O(N_LUT * Nsample): verify the cost accounting
     matches the complexity claim on a small instance. *)
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let rng = Slc_prob.Rng.create 17 in
  let seeds = Slc_device.Process.sample_batch rng Tech.n28 5 in
  let k = 3 and n_lut = 12 in
  let bayes_pop =
    Statistical.extract_population
      ~method_:(Statistical.Bayes (Lazy.force prior))
      ~tech:Tech.n28 ~arc ~seeds ~budget:k ()
  in
  let lut_pop =
    Statistical.extract_population ~method_:Statistical.Lut ~tech:Tech.n28
      ~arc ~seeds ~budget:n_lut ()
  in
  Alcotest.(check int) "bayes cost k*N" (k * 5) bayes_pop.Statistical.train_cost;
  Alcotest.(check bool) "lut cost ~ N_LUT*N" true
    (lut_pop.Statistical.train_cost >= 8 * 5
    && lut_pop.Statistical.train_cost <= n_lut * 5)

let () =
  Alcotest.run "integration"
    [
      ( "model experiments",
        [
          Alcotest.test_case "table1 shape" `Slow test_table1_shape;
          Alcotest.test_case "fig2 invariance" `Slow test_fig2_invariance;
          Alcotest.test_case "fig3 invariance" `Slow test_fig3_invariance;
          Alcotest.test_case "fig5 spread" `Quick test_fig5_spread;
        ] );
      ( "characterization",
        [
          Alcotest.test_case "fig6 mini conclusions" `Slow
            test_fig6_mini_conclusions;
          Alcotest.test_case "fig78 mini conclusions" `Slow
            test_fig78_mini_conclusions;
          Alcotest.test_case "fig9 mini" `Slow test_fig9_mini;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "beta ablation runs" `Slow test_ablation_beta_runs;
          Alcotest.test_case "chain ablation runs" `Slow test_ablation_chain_runs;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "printers" `Slow test_experiment_printers;
          Alcotest.test_case "cost model" `Slow test_full_flow_cost_model;
          Alcotest.test_case "golden parameter ranges" `Slow
            test_golden_parameter_ranges;
          Alcotest.test_case "vt transfer extension" `Slow
            test_vt_transfer_extension;
          Alcotest.test_case "sampling ablation" `Slow
            test_sampling_ablation_runs;
        ] );
    ]
