module Tech = Slc_device.Tech
module Process = Slc_device.Process
module Cells = Slc_cell.Cells
module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness
module Describe = Slc_prob.Describe
module Kde = Slc_prob.Kde
module Stattest = Slc_prob.Stattest
module Rng = Slc_prob.Rng

type stat_curve = {
  budgets : int array;
  e_mu_td : float array;
  e_sigma_td : float array;
  e_mu_sout : float array;
  e_sigma_sout : float array;
}

type fig78_result = {
  tech_name : string;
  arc_names : string list;
  n_points : int;
  n_seeds : int;
  baseline_cost : int;
  bayes : stat_curve;
  lse : stat_curve;
  lut : stat_curve;
  speedup_mu_td : Char_flow.reach;
  speedup_sigma_td : Char_flow.reach;
  speedup_mu_sout : Char_flow.reach;
  speedup_sigma_sout : Char_flow.reach;
}

let default_arcs () =
  [
    Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall;
    Arc.find Cells.nand2 ~pin:"A" ~out_dir:Arc.Fall;
    Arc.find Cells.nor2 ~pin:"A" ~out_dir:Arc.Rise;
  ]

(* Average Statistical.stat_errors over arcs for each budget. *)
let curve_of budgets (per_arc : Statistical.stat_errors array list) =
  let n_b = Array.length budgets in
  let pick f b =
    let vals = List.map (fun arr -> f arr.(b)) per_arc in
    List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals)
  in
  {
    budgets;
    e_mu_td = Array.init n_b (pick (fun e -> e.Statistical.e_mu_td));
    e_sigma_td = Array.init n_b (pick (fun e -> e.Statistical.e_sigma_td));
    e_mu_sout = Array.init n_b (pick (fun e -> e.Statistical.e_mu_sout));
    e_sigma_sout = Array.init n_b (pick (fun e -> e.Statistical.e_sigma_sout));
  }

let speedup_at ~bayes_budgets ~bayes_errs ~other_budgets ~other_errs =
  (* Elbow = k=2 when present, else the first budget. *)
  let idx =
    match Array.to_list bayes_budgets |> List.mapi (fun i b -> (i, b)) with
    | l -> (
      match List.find_opt (fun (_, b) -> b = 2) l with
      | Some (i, _) -> i
      | None -> 0)
  in
  let target = bayes_errs.(idx) in
  let curve =
    Array.to_list
      (Array.mapi (fun i b -> (b, other_errs.(i))) other_budgets)
  in
  Char_flow.speedup_vs ~budget:(float_of_int bayes_budgets.(idx)) ~curve
    ~target

let fig78 ~config ?(tech = Tech.n28) ?arcs ~prior () =
  let arcs = match arcs with Some a -> a | None -> default_arcs () in
  let rng = Rng.create config.Config.rng_seed in
  let seeds = Process.sample_batch rng tech config.Config.n_seeds in
  let points =
    Input_space.validation_set ~n:config.Config.n_validation_stat
      ~seed:config.Config.rng_seed tech
  in
  let before = Harness.sim_count () in
  let baselines =
    List.map
      (fun arc -> Statistical.monte_carlo_baseline ~tech ~arc ~seeds ~points)
      arcs
  in
  let baseline_cost = Harness.sim_count () - before in
  let run_method budgets method_ =
    let per_arc =
      List.map2
        (fun arc base ->
          Array.map
            (fun budget ->
              let pop =
                Statistical.extract_population ~method_ ~tech ~arc ~seeds
                  ~budget ()
              in
              Statistical.evaluate pop base)
            budgets)
        arcs baselines
    in
    curve_of budgets per_arc
  in
  let ks = Array.of_list config.Config.ks_stat in
  let lut_budgets = Array.of_list config.Config.lut_budgets_stat in
  let bayes = run_method ks (Statistical.Bayes prior) in
  let lse = run_method ks Statistical.Lse in
  let lut = run_method lut_budgets Statistical.Lut in
  {
    tech_name = tech.Tech.name;
    arc_names = List.map Arc.name arcs;
    n_points = Array.length points;
    n_seeds = Array.length seeds;
    baseline_cost;
    bayes;
    lse;
    lut;
    speedup_mu_td =
      speedup_at ~bayes_budgets:ks ~bayes_errs:bayes.e_mu_td
        ~other_budgets:lut_budgets ~other_errs:lut.e_mu_td;
    speedup_sigma_td =
      speedup_at ~bayes_budgets:ks ~bayes_errs:bayes.e_sigma_td
        ~other_budgets:lut_budgets ~other_errs:lut.e_sigma_td;
    speedup_mu_sout =
      speedup_at ~bayes_budgets:ks ~bayes_errs:bayes.e_mu_sout
        ~other_budgets:ks ~other_errs:lse.e_mu_sout;
    speedup_sigma_sout =
      speedup_at ~bayes_budgets:ks ~bayes_errs:bayes.e_sigma_sout
        ~other_budgets:ks ~other_errs:lse.e_sigma_sout;
  }

(* -------------------------------------------------------------- *)
(* Adaptive-budget experiment (ROADMAP item 4): does the sequential
   information-gain design reach the random design's accuracy with
   strictly fewer simulator runs?                                  *)

type adaptive_budget_result = {
  ab_tech_name : string;
  ab_arc_names : string list;
  ab_n_points : int;
  ab_n_seeds : int;
  ab_budgets : int array;
  ab_random : stat_curve;
  ab_adaptive : stat_curve;
  ab_random_sims : int array;
  ab_adaptive_sims : int array;
  ab_reference_budget : int;
  ab_reference_error : float;
  ab_match_budget : int option;
  ab_match_sims : int option;
  ab_sims_saved : int option;
  ab_gpr_fallbacks : int;
}

(* Worst of the four statistical error metrics at budget index [i] —
   "equal mean/sigma error" means no metric is allowed to regress. *)
let max_metric c i =
  Float.max
    (Float.max c.e_mu_td.(i) c.e_sigma_td.(i))
    (Float.max c.e_mu_sout.(i) c.e_sigma_sout.(i))

let adaptive_budget ~config ?(tech = Tech.n28) ?arcs ~prior () =
  let arcs = match arcs with Some a -> a | None -> default_arcs () in
  let rng = Rng.create config.Config.rng_seed in
  let seeds = Process.sample_batch rng tech config.Config.n_seeds in
  let points =
    Input_space.validation_set ~n:config.Config.n_validation_stat
      ~seed:config.Config.rng_seed tech
  in
  let baselines =
    List.map
      (fun arc -> Statistical.monte_carlo_baseline ~tech ~arc ~seeds ~points)
      arcs
  in
  (* Budget 1 cannot constrain a 4-parameter fit either way; start the
     sweep where the comparison is meaningful. *)
  let budgets =
    Array.of_list (List.filter (fun k -> k >= 2) config.Config.ks_stat)
  in
  let n_b = Array.length budgets in
  (* Both designs draw their per-seed points from the same generator
     state, so the comparison is paired: the adaptive design sees the
     random design's points as its candidate pool superset. *)
  let design_rng () = Rng.create (config.Config.rng_seed + 78) in
  let run design_of =
    let sims = Array.make n_b 0 in
    let per_arc =
      List.map2
        (fun arc base ->
          Array.mapi
            (fun bi budget ->
              let pop =
                Statistical.extract_population_design ~design:(design_of ())
                  ~method_:(Statistical.Bayes prior) ~tech ~arc ~seeds ~budget
                  ()
              in
              sims.(bi) <- sims.(bi) + pop.Statistical.train_cost;
              Statistical.evaluate pop base)
            budgets)
        arcs baselines
    in
    (curve_of budgets per_arc, sims)
  in
  let random, random_sims =
    run (fun () -> Statistical.Random_per_seed (design_rng ()))
  in
  let fallbacks_before = Slc_obs.Telemetry.read Slc_obs.Telemetry.gpr_fallbacks in
  let adaptive, adaptive_sims =
    run (fun () ->
        Statistical.Adaptive (Statistical.adaptive_defaults (design_rng ())))
  in
  let gpr_fallbacks =
    Slc_obs.Telemetry.read Slc_obs.Telemetry.gpr_fallbacks - fallbacks_before
  in
  (* Smallest adaptive budget whose worst metric is within [ref_err]. *)
  let smallest_match ref_err =
    let m = ref None in
    for i = n_b - 1 downto 0 do
      if max_metric adaptive i <= ref_err then m := Some i
    done;
    !m
  in
  (* Reference: the largest random budget whose accuracy the adaptive
     design attains with strictly fewer simulations.  At the top of the
     sweep both designs exhaust the candidate pool and converge, so the
     largest budget usually admits no savings; the interesting claim
     lives at the largest budget where one design still beats the
     other.  If no budget admits strict savings, fall back to the
     largest budget (the adaptive design then at best ties). *)
  let ref_i =
    let rec search i =
      if i <= 0 then n_b - 1
      else
        match smallest_match (max_metric random i) with
        | Some j when adaptive_sims.(j) < random_sims.(i) -> i
        | _ -> search (i - 1)
    in
    search (n_b - 1)
  in
  let ref_err = max_metric random ref_i in
  let match_i = ref (smallest_match ref_err) in
  {
    ab_tech_name = tech.Tech.name;
    ab_arc_names = List.map Arc.name arcs;
    ab_n_points = Array.length points;
    ab_n_seeds = Array.length seeds;
    ab_budgets = budgets;
    ab_random = random;
    ab_adaptive = adaptive;
    ab_random_sims = random_sims;
    ab_adaptive_sims = adaptive_sims;
    ab_reference_budget = budgets.(ref_i);
    ab_reference_error = ref_err;
    ab_match_budget = Option.map (fun i -> budgets.(i)) !match_i;
    ab_match_sims = Option.map (fun i -> adaptive_sims.(i)) !match_i;
    ab_sims_saved =
      Option.map (fun i -> random_sims.(ref_i) - adaptive_sims.(i)) !match_i;
    ab_gpr_fallbacks = gpr_fallbacks;
  }

let print_adaptive_budget ppf r =
  Format.fprintf ppf
    "Adaptive budgets: %s (%d arcs, %d points x %d seeds), bayes method@."
    r.ab_tech_name
    (List.length r.ab_arc_names)
    r.ab_n_points r.ab_n_seeds;
  Report.table ppf
    ~header:
      [ "k"; "random max-err"; "sims"; "adaptive max-err"; "sims" ]
    (Array.to_list
       (Array.mapi
          (fun i b ->
            [
              string_of_int b;
              Report.pct (max_metric r.ab_random i);
              string_of_int r.ab_random_sims.(i);
              Report.pct (max_metric r.ab_adaptive i);
              string_of_int r.ab_adaptive_sims.(i);
            ])
          r.ab_budgets));
  (match (r.ab_match_budget, r.ab_match_sims, r.ab_sims_saved) with
  | Some kb, Some sims, Some saved ->
    let ref_sims =
      let i = ref (Array.length r.ab_budgets - 1) in
      Array.iteri
        (fun j b -> if b = r.ab_reference_budget then i := j)
        r.ab_budgets;
      r.ab_random_sims.(!i)
    in
    Format.fprintf ppf
      "adaptive reaches random@@k=%d max error (%s) at k=%d: %d vs %d sims \
       (%d saved, %.0f%%)@."
      r.ab_reference_budget
      (Report.pct r.ab_reference_error)
      kb sims ref_sims saved
      (100.0 *. float_of_int saved /. float_of_int ref_sims)
  | _ ->
    Format.fprintf ppf
      "adaptive never reached the random design's max error (%s) in this \
       sweep@."
      (Report.pct r.ab_reference_error));
  if r.ab_gpr_fallbacks > 0 then
    Format.fprintf ppf "gpr fallbacks during adaptive sweep: %d@."
      r.ab_gpr_fallbacks

let print_stat_curve ppf name c =
  Report.table ppf
    ~header:
      [ "samples"; name ^ " E(muTd)"; "E(sigTd)"; "E(muSout)"; "E(sigSout)" ]
    (Array.to_list
       (Array.mapi
          (fun i b ->
            [
              string_of_int b;
              Report.pct c.e_mu_td.(i);
              Report.pct c.e_sigma_td.(i);
              Report.pct c.e_mu_sout.(i);
              Report.pct c.e_sigma_sout.(i);
            ])
          c.budgets))

let print_fig78 ppf r =
  Format.fprintf ppf
    "Fig 7/8: statistical characterization error, %s (%d arcs, %d points x %d seeds)@."
    r.tech_name (List.length r.arc_names) r.n_points r.n_seeds;
  Format.fprintf ppf "-- proposed model + Bayesian inference:@.";
  print_stat_curve ppf "bayes" r.bayes;
  Format.fprintf ppf "-- proposed model + LSE:@.";
  print_stat_curve ppf "lse" r.lse;
  Format.fprintf ppf "-- lookup table (per-seed):@.";
  print_stat_curve ppf "lut" r.lut;
  Format.fprintf ppf "baseline cost: %d sims@." r.baseline_cost;
  let show name r = Format.fprintf ppf "%s: %a@." name Char_flow.pp_reach r in
  show "speedup mu(Td) vs LUT (paper ~17x)" r.speedup_mu_td;
  show "speedup sigma(Td) vs LUT (paper ~20x)" r.speedup_sigma_td;
  show "speedup mu(Sout) vs LSE (paper ~18x)" r.speedup_mu_sout;
  show "speedup sigma(Sout) vs LSE (paper ~19x)" r.speedup_sigma_sout

type fig9_result = {
  point : Input_space.point;
  arc_name : string;
  n_seeds : int;
  k_bayes : int;
  lut_points : int;
  grid : float array;
  pdf_baseline : float array;
  pdf_bayes : float array;
  pdf_lut : float array;
  baseline_skewness : float;
  bayes_skewness : float;
  lut_skewness : float;
  ks_bayes : float;
  ks_lut : float;
  cost_baseline : int;
  cost_bayes : int;
  cost_lut : int;
}

let paper_fig9_point = { Harness.sin = 5.09e-12; cload = 1.67e-15; vdd = 0.734 }

let fig9 ~config ?(tech = Tech.n28) ?arc ?point ~prior () =
  let arc =
    match arc with
    | Some a -> a
    | None -> Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall
  in
  let point = match point with Some p -> p | None -> paper_fig9_point in
  let rng = Rng.create (config.Config.rng_seed + 9) in
  let seeds = Process.sample_batch rng tech config.Config.n_seeds_fig9 in
  let before = Harness.sim_count () in
  let baseline_samples =
    Array.map
      (fun seed -> (Harness.simulate ~seed tech arc point).Harness.td)
      seeds
  in
  let cost_baseline = Harness.sim_count () - before in
  let k_bayes = 7 and lut_points = 60 in
  let bayes_pop =
    Statistical.extract_population ~method_:(Statistical.Bayes prior) ~tech
      ~arc ~seeds ~budget:k_bayes ()
  in
  let lut_pop =
    Statistical.extract_population ~method_:Statistical.Lut ~tech ~arc ~seeds
      ~budget:lut_points ()
  in
  let bayes_samples = Statistical.predict_samples bayes_pop point ~td:true in
  let lut_samples = Statistical.predict_samples lut_pop point ~td:true in
  let kde_base = Kde.fit baseline_samples in
  let kde_bayes = Kde.fit bayes_samples in
  let kde_lut = Kde.fit lut_samples in
  let grid = Kde.grid kde_base 80 in
  {
    point;
    arc_name = Arc.name arc;
    n_seeds = Array.length seeds;
    k_bayes;
    lut_points;
    grid;
    pdf_baseline = Kde.evaluate kde_base grid;
    pdf_bayes = Kde.evaluate kde_bayes grid;
    pdf_lut = Kde.evaluate kde_lut grid;
    baseline_skewness = Describe.skewness baseline_samples;
    bayes_skewness = Describe.skewness bayes_samples;
    lut_skewness = Describe.skewness lut_samples;
    ks_bayes = Stattest.ks_two_sample baseline_samples bayes_samples;
    ks_lut = Stattest.ks_two_sample baseline_samples lut_samples;
    cost_baseline;
    cost_bayes = bayes_pop.Statistical.train_cost;
    cost_lut = lut_pop.Statistical.train_cost;
  }

let print_fig9 ppf r =
  Format.fprintf ppf "Fig 9: delay pdf at %a (%s, %d seeds)@." Harness.pp_point
    r.point r.arc_name r.n_seeds;
  Format.fprintf ppf
    "  method          sims  skewness  KS-vs-baseline@.";
  Format.fprintf ppf "  baseline (MC)  %5d  %8.3f  %s@." r.cost_baseline
    r.baseline_skewness "-";
  Format.fprintf ppf "  bayes (k=%d)    %5d  %8.3f  %.3f@." r.k_bayes
    r.cost_bayes r.bayes_skewness r.ks_bayes;
  Format.fprintf ppf "  lut (%d pts)   %5d  %8.3f  %.3f@." r.lut_points
    r.cost_lut r.lut_skewness r.ks_lut;
  (* ASCII densities, normalized to the tallest curve. *)
  let vmax =
    Array.fold_left Float.max 0.0
      (Array.concat [ r.pdf_baseline; r.pdf_bayes; r.pdf_lut ])
  in
  Format.fprintf ppf "  delay(ps)  baseline / bayes / lut@.";
  Array.iteri
    (fun i x ->
      if i mod 4 = 0 then
        Format.fprintf ppf "  %8.2f  |%s|%s|%s|@." (x *. 1e12)
          (Report.bar ~width:24 r.pdf_baseline.(i) vmax)
          (Report.bar ~width:24 r.pdf_bayes.(i) vmax)
          (Report.bar ~width:24 r.pdf_lut.(i) vmax))
    r.grid
