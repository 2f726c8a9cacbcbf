module Tech = Slc_device.Tech
module Cells = Slc_cell.Cells
module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness
module Describe = Slc_prob.Describe

type fig5_summary = {
  n : int;
  sin_min : float;
  sin_max : float;
  cload_min : float;
  cload_max : float;
  vdd_min : float;
  vdd_max : float;
  points : Input_space.point array;
}

let fig5 ?(n = 1000) ?(seed = 42) tech =
  let points = Input_space.validation_set ~n ~seed tech in
  let proj f = Array.map f points in
  let sins = proj (fun p -> p.Harness.sin) in
  let cls = proj (fun p -> p.Harness.cload) in
  let vdds = proj (fun p -> p.Harness.vdd) in
  let mn a = Array.fold_left Float.min a.(0) a in
  let mx a = Array.fold_left Float.max a.(0) a in
  {
    n;
    sin_min = mn sins;
    sin_max = mx sins;
    cload_min = mn cls;
    cload_max = mx cls;
    vdd_min = mn vdds;
    vdd_max = mx vdds;
    points;
  }

let print_fig5 ppf s =
  Format.fprintf ppf
    "Fig 5: %d validation points spread over the input space@." s.n;
  Report.table ppf
    ~header:[ "axis"; "min"; "max" ]
    [
      [ "Sin"; Report.ps s.sin_min; Report.ps s.sin_max ];
      [
        "Cload";
        Printf.sprintf "%.2ffF" (s.cload_min *. 1e15);
        Printf.sprintf "%.2ffF" (s.cload_max *. 1e15);
      ];
      [
        "Vdd";
        Printf.sprintf "%.3fV" s.vdd_min;
        Printf.sprintf "%.3fV" s.vdd_max;
      ];
    ]

type curve = {
  budgets : int array;
  mean_err : float array;
  std_err : float array;
}

type fig6_result = {
  tech_name : string;
  arcs : string list;
  n_validation : int;
  bayes_td : curve;
  lse_td : curve;
  rsm_td : curve;
  lut_td : curve;
  bayes_sout : curve;
  lse_sout : curve;
  rsm_sout : curve;
  lut_sout : curve;
  prior_cost : int;
  baseline_cost : int;
  target_err : float;
  bayes_budget : float;
  lse_budget : float option;
  lut_budget : float option;
  speedup_vs_lut : Char_flow.reach;
  speedup_model_only : float option;
}

(* Aggregate per-arc errors into a (mean, std) curve. *)
let curve_of budgets per_arc_errors =
  let n_b = Array.length budgets in
  let mean_err = Array.make n_b 0.0 and std_err = Array.make n_b 0.0 in
  for b = 0 to n_b - 1 do
    let errs = Array.map (fun arc_errs -> arc_errs.(b)) per_arc_errors in
    mean_err.(b) <- Describe.mean errs;
    std_err.(b) <- (if Array.length errs >= 2 then Describe.std errs else 0.0)
  done;
  { budgets; mean_err; std_err }

let fig6 ~config ?(tech = Tech.n14) ?(cells = Cells.paper_set) ~prior () =
  let prior_cost = prior.Prior.delay.Prior.learn_cost in
  let arcs = List.concat_map Arc.all_of_cell cells in
  let points =
    Input_space.validation_set ~n:config.Config.n_validation
      ~seed:config.Config.rng_seed tech
  in
  let before_baseline = Harness.sim_count () in
  let baselines =
    List.map (fun arc -> Char_flow.simulate_dataset tech arc points) arcs
  in
  let baseline_cost = Harness.sim_count () - before_baseline in
  let ks = Array.of_list config.Config.ks in
  let lut_budgets = Array.of_list config.Config.lut_budgets in
  let run_method budgets train =
    (* per arc: array over budgets of (td_err, sout_err) *)
    let per_arc =
      List.map
        (fun ds ->
          Array.map
            (fun b ->
              let p = train ds.Char_flow.arc b in
              Char_flow.evaluate p ds)
            budgets)
        baselines
    in
    let td =
      Array.of_list
        (List.map (Array.map (fun e -> e.Char_flow.td_err)) per_arc)
    in
    let sout =
      Array.of_list
        (List.map (Array.map (fun e -> e.Char_flow.sout_err)) per_arc)
    in
    (curve_of budgets td, curve_of budgets sout)
  in
  let bayes_td, bayes_sout =
    run_method ks (fun arc k -> Char_flow.train_bayes ~prior tech arc ~k)
  in
  let lse_td, lse_sout =
    run_method ks (fun arc k -> Char_flow.train_lse tech arc ~k)
  in
  let rsm_td, rsm_sout =
    run_method ks (fun arc k -> Char_flow.train_rsm tech arc ~k)
  in
  let lut_td, lut_sout =
    run_method lut_budgets (fun arc budget ->
        Char_flow.train_lut tech arc ~budget)
  in
  (* Iso-accuracy speedup at the Bayes elbow (k = 2 if present). *)
  let elbow_idx =
    match Array.to_list ks |> List.mapi (fun i k -> (i, k)) with
    | l -> (
      match List.find_opt (fun (_, k) -> k = 2) l with
      | Some (i, _) -> i
      | None -> 0)
  in
  let target_err = bayes_td.mean_err.(elbow_idx) in
  let curve_list c =
    Array.to_list (Array.mapi (fun i b -> (b, c.mean_err.(i))) c.budgets)
  in
  let bayes_budget = float_of_int ks.(elbow_idx) in
  let lse_budget =
    Char_flow.budget_to_reach ~curve:(curve_list lse_td) ~target:target_err
  in
  let lut_budget =
    Char_flow.budget_to_reach ~curve:(curve_list lut_td) ~target:target_err
  in
  let speedup_vs_lut =
    Char_flow.speedup_vs ~budget:bayes_budget ~curve:(curve_list lut_td)
      ~target:target_err
  in
  let speedup_model_only =
    match (lse_budget, lut_budget) with
    | Some l, Some t -> Some (t /. l)
    | _ -> None
  in
  {
    tech_name = tech.Tech.name;
    arcs = List.map Arc.name arcs;
    n_validation = config.Config.n_validation;
    bayes_td;
    lse_td;
    rsm_td;
    lut_td;
    bayes_sout;
    lse_sout;
    rsm_sout;
    lut_sout;
    prior_cost;
    baseline_cost;
    target_err;
    bayes_budget;
    lse_budget;
    lut_budget;
    speedup_vs_lut;
    speedup_model_only;
  }

let print_curve ppf name c =
  Report.table ppf
    ~header:[ "samples"; name ^ " mean err"; "std (error bars)" ]
    (Array.to_list
       (Array.mapi
          (fun i b ->
            [
              string_of_int b;
              Report.pct c.mean_err.(i);
              Report.pct c.std_err.(i);
            ])
          c.budgets))

let print_fig6 ppf r =
  Format.fprintf ppf
    "Fig 6: nominal delay characterization error, %s (%d arcs, %d validation points)@."
    r.tech_name (List.length r.arcs) r.n_validation;
  Format.fprintf ppf "-- proposed model + Bayesian inference (Td):@.";
  print_curve ppf "bayes" r.bayes_td;
  Format.fprintf ppf "-- proposed model + LSE (Td):@.";
  print_curve ppf "lse" r.lse_td;
  Format.fprintf ppf "-- response surface / polynomial regression (Td):@.";
  print_curve ppf "rsm" r.rsm_td;
  Format.fprintf ppf "-- lookup table (Td):@.";
  print_curve ppf "lut" r.lut_td;
  Format.fprintf ppf "prior learning cost: %d sims (amortized over the node)@."
    r.prior_cost;
  Format.fprintf ppf "baseline cost: %d sims@." r.baseline_cost;
  Format.fprintf ppf
    "iso-accuracy at %s: bayes needs %.0f runs; lse %s; lut %s@."
    (Report.pct r.target_err) r.bayes_budget
    (match r.lse_budget with
    | Some b -> Printf.sprintf "%.1f" b
    | None -> "n/a")
    (match r.lut_budget with
    | Some b -> Printf.sprintf "%.1f" b
    | None -> "n/a");
  Format.fprintf ppf "=> speedup vs lookup table: %a (paper: ~15x)@."
    Char_flow.pp_reach r.speedup_vs_lut;
  match r.speedup_model_only with
  | Some s ->
    Format.fprintf ppf "   contribution of the compact model alone: %.1fx@." s
  | None -> ()
