module Tech = Slc_device.Tech
module Cells = Slc_cell.Cells
module Arc = Slc_cell.Arc
module Describe = Slc_prob.Describe

type result = {
  target_name : string;
  vt_shift : float;
  k : int;
  err_rvt_prior : float;
  err_matched_prior : float;
  err_lut : float;
  lut_budget : int;
}

let mean_td_err ~config ~tech ~train =
  let arcs = List.concat_map Arc.all_of_cell Cells.paper_set in
  let points =
    Input_space.validation_set
      ~n:(max 30 (config.Config.n_validation / 3))
      ~seed:config.Config.rng_seed tech
  in
  let errs =
    List.map
      (fun arc ->
        let ds = Char_flow.simulate_dataset tech arc points in
        let p = train arc in
        (Char_flow.evaluate p ds).Char_flow.td_err)
      arcs
  in
  Describe.mean (Array.of_list errs)

let vt_transfer ~config ?(tech = Tech.n14)
    ?(vt_shift = -0.06) ?(k = 2) ?(lut_budget = 18) () =
  let target = Tech.vt_variant tech ~shift:vt_shift ~suffix:"-lvt" in
  let historical = Tech.historical_for tech in
  (* Smaller learning grids keep the experiment proportionate: two
     priors must be learned. *)
  let grid_levels = [| 3; 3; 2 |] in
  let rvt_prior = Prior.learn_pair ~grid_levels ~historical () in
  let matched_prior =
    Prior.learn_pair ~grid_levels
      ~historical:
        (List.map (fun t -> Tech.vt_variant t ~shift:vt_shift ~suffix:"-lvt")
           historical)
      ()
  in
  let err_rvt_prior =
    mean_td_err ~config ~tech:target ~train:(fun arc ->
        Char_flow.train_bayes ~prior:rvt_prior target arc ~k)
  in
  let err_matched_prior =
    mean_td_err ~config ~tech:target ~train:(fun arc ->
        Char_flow.train_bayes ~prior:matched_prior target arc ~k)
  in
  let err_lut =
    mean_td_err ~config ~tech:target ~train:(fun arc ->
        Char_flow.train_lut target arc ~budget:lut_budget)
  in
  {
    target_name = target.Tech.name;
    vt_shift;
    k;
    err_rvt_prior;
    err_matched_prior;
    err_lut;
    lut_budget;
  }

let print_result ppf r =
  Format.fprintf ppf
    "Extension: multi-Vt transfer to %s (Vt shift %+.0f mV), k = %d@."
    r.target_name (1000.0 *. r.vt_shift) r.k;
  Report.table ppf
    ~header:[ "method"; "Td error"; "train sims/arc" ]
    [
      [ "bayes, RVT-learned prior"; Report.pct r.err_rvt_prior;
        string_of_int r.k ];
      [ "bayes, flavor-matched prior"; Report.pct r.err_matched_prior;
        string_of_int r.k ];
      [ "lookup table"; Report.pct r.err_lut; string_of_int r.lut_budget ];
    ]
