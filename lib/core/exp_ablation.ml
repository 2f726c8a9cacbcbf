module Tech = Slc_device.Tech
module Cells = Slc_cell.Cells
module Arc = Slc_cell.Arc
module Describe = Slc_prob.Describe

type row = { variant : string; k : int; td_err : float }

(* Validation baselines are expensive (arcs x points simulations) and
   identical across ablation variants; build them once per (config,
   tech) and reuse. *)
let baseline_cache :
    (string * int * int, Char_flow.dataset list) Slc_num.Memo.t =
  Slc_num.Memo.create ()

let baselines_for ~config ~tech =
  let n = max 30 (config.Config.n_validation / 3) in
  Slc_num.Memo.find_or_build baseline_cache
    (tech.Tech.name, n, config.Config.rng_seed)
    (fun () ->
      let arcs = List.concat_map Arc.all_of_cell Cells.paper_set in
      let points =
        Input_space.validation_set ~n ~seed:config.Config.rng_seed tech
      in
      List.map (fun arc -> Char_flow.simulate_dataset tech arc points) arcs)

let eval_train ~config ~tech ~train ~ks =
  let baselines = baselines_for ~config ~tech in
  List.map
    (fun k ->
      let errs =
        List.map
          (fun ds ->
            let p = train ds.Char_flow.arc ~k in
            (Char_flow.evaluate p ds).Char_flow.td_err)
          baselines
      in
      (k, Describe.mean (Array.of_list errs)))
    ks

let eval_prior ~config ~tech ~(prior : Prior.pair) ~ks =
  eval_train ~config ~tech ~ks ~train:(fun arc ~k ->
      Char_flow.train_bayes ~prior tech arc ~k)

let rows_of variant evals =
  List.map (fun (k, e) -> { variant; k; td_err = e }) evals

let small_ks (config : Config.t) =
  List.filter (fun k -> k <= 5) config.Config.ks
  |> function [] -> [ 2; 3 ] | l -> l

let ablation_beta ~config ?(tech = Tech.n14) ~prior () =
  let const =
    {
      Prior.delay = Prior.constant_beta prior.Prior.delay;
      slew = Prior.constant_beta prior.Prior.slew;
    }
  in
  let ks = small_ks config in
  rows_of "learned beta(xi)" (eval_prior ~config ~tech ~prior ~ks)
  @ rows_of "constant beta" (eval_prior ~config ~tech ~prior:const ~ks)

let ablation_history ~config ?(tech = Tech.n14) ~prior () =
  let ks = small_ks config in
  let variant name prior = rows_of name (eval_prior ~config ~tech ~prior ~ks) in
  let subset name historical =
    variant name (Prior.learn_pair ~historical ())
  in
  subset "similar nodes (n20,n28)" [ Tech.n20; Tech.n28 ]
  @ variant "all five nodes" prior
  @ subset "dissimilar nodes (n40,n45)" [ Tech.n40; Tech.n45 ]

let ablation_design ~config ?(tech = Tech.n14) ~prior ?(n_draws = 5) () =
  let ks = small_ks config in
  let curated_bayes =
    eval_train ~config ~tech ~ks ~train:(fun arc ~k ->
        Char_flow.train_bayes ~prior tech arc ~k)
  in
  let curated_lse =
    eval_train ~config ~tech ~ks ~train:(fun arc ~k ->
        Char_flow.train_lse tech arc ~k)
  in
  (* Random designs: average the error over independent draws. *)
  let random train_with =
    List.map
      (fun k ->
        let per_draw =
          List.init n_draws (fun d ->
              let evals =
                eval_train ~config ~tech ~ks:[ k ]
                  ~train:(fun arc ~k ->
                    let points =
                      Input_space.random_fitting_points tech ~k
                        ~seed:((1000 * d) + k)
                    in
                    train_with ~points arc ~k)
              in
              match evals with [ (_, e) ] -> e | _ -> assert false)
        in
        (k, Describe.mean (Array.of_list per_draw)))
      ks
  in
  let random_bayes =
    random (fun ~points arc ~k -> Char_flow.train_bayes ~points ~prior tech arc ~k)
  in
  let random_lse =
    random (fun ~points arc ~k -> Char_flow.train_lse ~points tech arc ~k)
  in
  rows_of "curated design, bayes" curated_bayes
  @ rows_of "curated design, lse" curated_lse
  @ rows_of "random design, bayes" random_bayes
  @ rows_of "random design, lse" random_lse

type complexity_row = { cell : string; err4 : float; err5 : float }

let ablation_model_complexity ?(tech = Tech.n14) () =
  let module Harness = Slc_cell.Harness in
  let module Equivalent = Slc_cell.Equivalent in
  List.map
    (fun cell ->
      let arc = Arc.find cell ~pin:"A" ~out_dir:Arc.Fall in
      let unit_points = Input_space.unit_grid ~levels:[| 4; 4; 3 |] in
      let points = Array.map (Input_space.denormalize tech) unit_points in
      let eq = Equivalent.of_arc tech arc in
      let obs =
        Array.map
          (fun (p : Harness.point) ->
            let m = Harness.simulate tech arc p in
            {
              Extract_lse.point = p;
              ieff = Equivalent.ieff eq ~vdd:p.Harness.vdd;
              value = m.Harness.td;
            })
          points
      in
      let p4 = Extract_lse.fit obs in
      let p5 = Model_ext.fit ~init:(Model_ext.of_base p4) obs in
      {
        cell = cell.Cells.name;
        err4 = Extract_lse.avg_abs_rel_error p4 obs;
        err5 = Model_ext.avg_abs_rel_error p5 obs;
      })
    Cells.paper_set

let print_complexity ppf rows =
  Format.fprintf ppf "Ablation: model complexity (4 vs 5 parameters)@.";
  Report.table ppf
    ~header:[ "cell"; "4-param err"; "+Sin*Cload err" ]
    (List.map
       (fun r -> [ r.cell; Report.pct r.err4; Report.pct r.err5 ])
       rows)

type sampling_row = {
  estimator : string;
  mean_ratio : float;
  rep_sd : float;
}

let ablation_sampling ?(tech = Tech.n28) ?(n_seeds = 40) ?(n_reps = 6) () =
  let module Process = Slc_device.Process in
  let module Rng = Slc_prob.Rng in
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let points =
    [|
      { Slc_cell.Harness.sin = 5e-12; cload = 2e-15; vdd = 0.75 };
      { Slc_cell.Harness.sin = 10e-12; cload = 5e-15; vdd = 0.9 };
      { Slc_cell.Harness.sin = 3e-12; cload = 1e-15; vdd = 1.0 };
    |]
  in
  let stats_with seeds pt =
    let samples =
      Array.map
        (fun seed ->
          (Slc_cell.Harness.simulate ~seed tech arc pt).Slc_cell.Harness.td)
        seeds
    in
    (Describe.mean samples, Describe.std samples)
  in

  (* Large-sample bias reference. *)
  let ref_rng = Rng.create 424242 in
  let ref_seeds = Process.sample_batch ref_rng tech (10 * n_seeds) in
  let ref_stats = Array.map (stats_with ref_seeds) points in
  (* One simulation sweep per (estimator, rep, point) yields both the
     mean and sigma ratios. *)
  let evaluate batch_of =
    let mu_ratios = ref [] and sg_ratios = ref [] in
    for rep = 1 to n_reps do
      let seeds = batch_of rep in
      Array.iteri
        (fun i pt ->
          let mu, sg = stats_with seeds pt in
          let mu_ref, sg_ref = ref_stats.(i) in
          mu_ratios := (mu /. mu_ref) :: !mu_ratios;
          sg_ratios := (sg /. sg_ref) :: !sg_ratios)
        points
    done;
    let stats l =
      let a = Array.of_list l in
      (Describe.mean a, Describe.std a)
    in
    (stats !mu_ratios, stats !sg_ratios)
  in
  let mc rep = Process.sample_batch (Rng.create rep) tech n_seeds in
  let lhs rep = Process.sample_batch_lhs (Rng.create rep) tech n_seeds in
  let (mc_mu, mc_mu_sd), (mc_sg, mc_sg_sd) = evaluate mc in
  let (lhs_mu, lhs_mu_sd), (lhs_sg, lhs_sg_sd) = evaluate lhs in
  [
    { estimator = "mu(Td), monte carlo"; mean_ratio = mc_mu; rep_sd = mc_mu_sd };
    { estimator = "mu(Td), latin hypercube"; mean_ratio = lhs_mu; rep_sd = lhs_mu_sd };
    { estimator = "sigma(Td), monte carlo"; mean_ratio = mc_sg; rep_sd = mc_sg_sd };
    { estimator = "sigma(Td), latin hypercube"; mean_ratio = lhs_sg; rep_sd = lhs_sg_sd };
  ]

let print_sampling ppf rows =
  Format.fprintf ppf "Ablation: process-sampling estimators for Td statistics@.";
  Report.table ppf
    ~header:[ "estimator"; "mean ratio vs reference"; "rep-to-rep sd" ]
    (List.map
       (fun r ->
         [
           r.estimator;
           Printf.sprintf "%.3f" r.mean_ratio;
           Report.pct r.rep_sd;
         ])
       rows)

let ablation_chain ~config ?(tech = Tech.n14) ~prior () =
  (* Oldest to newest among the historical nodes. *)
  let ordered =
    List.filter_map
      (fun t ->
        if String.equal t.Tech.name tech.Tech.name then None
        else Some t.Tech.name)
      (List.rev Tech.all)
  in
  let chained =
    {
      Prior.delay = Belief.chain_prior prior.Prior.delay ~ordered;
      slew = Belief.chain_prior prior.Prior.slew ~ordered;
    }
  in
  let ks = small_ks config in
  rows_of "pooled prior" (eval_prior ~config ~tech ~prior ~ks)
  @ rows_of "belief-chain prior" (eval_prior ~config ~tech ~prior:chained ~ks)

let print_rows ppf ~title rows =
  Format.fprintf ppf "%s@." title;
  Report.table ppf
    ~header:[ "variant"; "k"; "Td error" ]
    (List.map
       (fun r -> [ r.variant; string_of_int r.k; Report.pct r.td_err ])
       rows)
