module Tech = Slc_device.Tech
module Process = Slc_device.Process
module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness
module Equivalent = Slc_cell.Equivalent
module Nldm = Slc_cell.Nldm

type dataset = {
  arc : Arc.t;
  points : Input_space.point array;
  td : float array;
  sout : float array;
  cost : int;
}

let simulate_dataset ?seed tech arc points =
  let before = Harness.sim_count () in
  (* One lane per point, all for the same seed.  Failure semantics
     match [Parallel.map]: a single failing point re-raises its
     exception unwrapped, several raise [Parallel.Failures]. *)
  let seed = Option.value seed ~default:Process.nominal in
  let results =
    Harness.simulate_batch tech arc (Array.map (fun p -> (seed, p)) points)
  in
  (match
     List.filter_map
       (function Error e -> Some e | Ok _ -> None)
       (Array.to_list results)
   with
  | [] -> ()
  | [ e ] -> raise e
  | e :: rest -> raise (Slc_num.Parallel.Failures (e, rest)));
  let measured =
    Array.map (function Ok m -> m | Error _ -> assert false) results
  in
  {
    arc;
    points;
    td = Array.map (fun m -> m.Harness.td) measured;
    sout = Array.map (fun m -> m.Harness.sout) measured;
    cost = Harness.sim_count () - before;
  }

let ieff_at ?(seed = Process.nominal) tech arc (p : Input_space.point) =
  Equivalent.ieff_with_seed tech seed arc ~vdd:p.Harness.vdd

let observations_of_dataset ?(seed = Process.nominal) tech ds ~metric =
  let values =
    match metric with Prior.Delay -> ds.td | Prior.Slew -> ds.sout
  in
  Array.init (Array.length ds.points) (fun i ->
      {
        Extract_lse.point = ds.points.(i);
        ieff = ieff_at ~seed tech ds.arc ds.points.(i);
        value = values.(i);
      })

type model =
  | Timing_pair of { td : Timing_model.params; sout : Timing_model.params }
  | Nldm_table of Slc_cell.Nldm.t
  | Gpr_pair of { td : Gpr.model; sout : Gpr.model }
  | Opaque

type predictor = {
  label : string;
  train_cost : int;
  model : model;
  predict_td : Input_space.point -> float;
  predict_sout : Input_space.point -> float;
}

(* The last [Ieff] a model predictor computed, keyed by the bits of its
   supply voltage, the one coordinate [ieff_at] reads. *)
type ieff_memo = Empty | Last of { vdd : float; ieff : float }

(* [ieff_at] is [Mosfet.ieff dev ~vdd], where [dev] — the arc's
   equivalent inverter with the seed's global shifts — does not depend
   on the point.  A predictor builds [dev] once, here.  [Mosfet.ieff]
   itself (two drain-current evaluations) still costs more than the
   model evaluation, and a query asks for it twice (delay, then slew)
   at one supply, as does every query of a pass at a fixed [Vdd]; so
   both closures share a one-entry memo of it.  The entry is immutable
   and published through an [Atomic.t]: a predictor shared across
   domains reads a consistent (vdd, ieff) pair, and a race only
   recomputes.  Answers are bitwise [ieff_at]'s. *)
let model_predictor ~label ~seed ~tech ~arc ~cost p_td p_sout =
  let dev =
    Equivalent.device_with_seed tech
      (Option.value seed ~default:Process.nominal)
      arc
  in
  let last = Atomic.make Empty in
  let ieff (pt : Input_space.point) =
    match Atomic.get last with
    | Last m
      when Int64.equal
             (Int64.bits_of_float m.vdd)
             (Int64.bits_of_float pt.Harness.vdd) ->
      m.ieff
    | Empty | Last _ ->
      let ieff = Slc_device.Mosfet.ieff dev ~vdd:pt.Harness.vdd in
      Atomic.set last (Last { vdd = pt.Harness.vdd; ieff });
      ieff
  in
  {
    label;
    train_cost = cost;
    model = Timing_pair { td = p_td; sout = p_sout };
    predict_td = (fun pt -> Timing_model.eval p_td ~ieff:(ieff pt) pt);
    predict_sout = (fun pt -> Timing_model.eval p_sout ~ieff:(ieff pt) pt);
  }

let table_predictor ~label ~cost table =
  {
    label;
    train_cost = cost;
    model = Nldm_table table;
    predict_td = (fun pt -> Nldm.lookup_td table pt);
    predict_sout = (fun pt -> Nldm.lookup_sout table pt);
  }

(* The closures only read the fitted posteriors (immutable) and call
   [Gpr.predict] without a workspace, so a predictor may be shared
   across query threads/domains like the analytical ones. *)
let gpr_predictor ~label ~cost (f_td : Gpr.t) (f_sout : Gpr.t) =
  {
    label;
    train_cost = cost;
    model = Gpr_pair { td = Gpr.model f_td; sout = Gpr.model f_sout };
    predict_td = (fun pt -> Gpr.predict f_td pt);
    predict_sout = (fun pt -> Gpr.predict f_sout pt);
  }

let predictor_of_model ?seed ~label ~train_cost tech arc model =
  match model with
  | Timing_pair { td; sout } ->
    model_predictor ~label ~seed ~tech ~arc ~cost:train_cost td sout
  | Nldm_table table -> table_predictor ~label ~cost:train_cost table
  | Gpr_pair { td; sout } ->
    (* [Gpr.refit] is bitwise: a predictor rebuilt from the stored
       training set answers exactly like the original. *)
    gpr_predictor ~label ~cost:train_cost (Gpr.refit tech td)
      (Gpr.refit tech sout)
  | Opaque ->
    Slc_obs.Slc_error.invalid_input ~site:"Char_flow.predictor_of_model" "Opaque models cannot be rebuilt"

let fitting_points_for ?points tech ~k =
  match points with
  | None -> Input_space.fitting_points tech ~k
  | Some pts ->
    if Array.length pts <> k then
      Slc_obs.Slc_error.invalid_input ~site:"Char_flow" "points override must have length k";
    pts

let train_bayes_on ?workspace ?seed ~(prior : Prior.pair) tech ds =
  let obs_td = observations_of_dataset ?seed tech ds ~metric:Prior.Delay in
  let obs_sout = observations_of_dataset ?seed tech ds ~metric:Prior.Slew in
  let p_td =
    Map_fit.fit_params ?workspace ~prior:prior.Prior.delay ~tech obs_td
  in
  let p_sout =
    Map_fit.fit_params ?workspace ~prior:prior.Prior.slew ~tech obs_sout
  in
  model_predictor ~label:"model+bayes" ~seed ~tech ~arc:ds.arc ~cost:ds.cost
    p_td p_sout

let train_bayes ?seed ?points ~prior tech arc ~k =
  let points = fitting_points_for ?points tech ~k in
  let ds = simulate_dataset ?seed tech arc points in
  train_bayes_on ?seed ~prior tech ds

let train_lse_on ?workspace ?seed tech ds =
  let obs_td = observations_of_dataset ?seed tech ds ~metric:Prior.Delay in
  let obs_sout = observations_of_dataset ?seed tech ds ~metric:Prior.Slew in
  let p_td = Extract_lse.fit ?workspace obs_td in
  let p_sout = Extract_lse.fit ?workspace obs_sout in
  model_predictor ~label:"model+lse" ~seed ~tech ~arc:ds.arc ~cost:ds.cost
    p_td p_sout

let train_lse ?seed ?points tech arc ~k =
  let points = fitting_points_for ?points tech ~k in
  let ds = simulate_dataset ?seed tech arc points in
  train_lse_on ?seed tech ds

let train_rsm ?seed ?points tech arc ~k =
  let points = fitting_points_for ?points tech ~k in
  let ds = simulate_dataset ?seed tech arc points in
  let samples values =
    Array.init (Array.length ds.points) (fun i -> (ds.points.(i), values.(i)))
  in
  let rsm_td = Rsm.fit tech (samples ds.td) in
  let rsm_sout = Rsm.fit tech (samples ds.sout) in
  {
    label = "rsm";
    train_cost = ds.cost;
    model = Opaque;
    predict_td = Rsm.eval rsm_td;
    predict_sout = Rsm.eval rsm_sout;
  }

let gpr_label = "model+gpr"

let train_gpr_on ?workspace tech ds =
  let f_td = Gpr.fit ?workspace tech ds.points ds.td in
  let f_sout = Gpr.fit ?workspace tech ds.points ds.sout in
  gpr_predictor ~label:gpr_label ~cost:ds.cost f_td f_sout

let train_lut ?seed tech arc ~budget =
  let box = Tech.input_box tech in
  let levels = Nldm.design_levels ~budget ~box in
  let before = Harness.sim_count () in
  let table = Nldm.build ?seed tech arc ~levels in
  table_predictor ~label:"lookup-table"
    ~cost:(Harness.sim_count () - before)
    table

type errors = { td_err : float; sout_err : float }

let mean_abs_rel pred actual =
  let n = Array.length actual in
  if n = 0 then Slc_obs.Slc_error.invalid_input ~site:"Char_flow.evaluate" "empty dataset";
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. Float.abs ((pred.(i) -. actual.(i)) /. actual.(i))
  done;
  !acc /. float_of_int n

let evaluate p ds =
  let td_pred = Array.map p.predict_td ds.points in
  let sout_pred = Array.map p.predict_sout ds.points in
  {
    td_err = mean_abs_rel td_pred ds.td;
    sout_err = mean_abs_rel sout_pred ds.sout;
  }

let default_gpr_threshold = 0.05

let with_gpr_fallback ?workspace ~threshold tech ds p =
  let e = evaluate p ds in
  if Float.max e.td_err e.sout_err > threshold then begin
    Slc_obs.Telemetry.incr Slc_obs.Telemetry.gpr_fallbacks;
    train_gpr_on ?workspace tech ds
  end
  else p

let budget_to_reach ~curve ~target =
  (* The curve need not be monotone; find the first crossing going up
     in budget, log-interpolating between bracketing points. *)
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) curve in
  let rec go prev = function
    | [] -> None
    | (b, e) :: rest -> (
      if e <= target then
        match prev with
        | None -> Some (float_of_int b)
        | Some (b0, e0) when e0 > target ->
          (* log-linear interpolation in budget *)
          let lb0 = log (float_of_int b0) and lb1 = log (float_of_int b) in
          let t = (e0 -. target) /. Float.max 1e-12 (e0 -. e) in
          Some (exp (lb0 +. (t *. (lb1 -. lb0))))
        | Some _ -> Some (float_of_int b)
      else go (Some (b, e)) rest)
  in
  go None sorted

type reach = Reached of float | At_least of float

let speedup_vs ~budget ~curve ~target =
  match budget_to_reach ~curve ~target with
  | Some b -> Reached (b /. budget)
  | None ->
    let max_budget =
      List.fold_left (fun acc (b, _) -> max acc b) 0 curve
    in
    At_least (float_of_int max_budget /. budget)

let pp_reach ppf = function
  | Reached s -> Format.fprintf ppf "%.1fx" s
  | At_least s -> Format.fprintf ppf ">%.1fx (never reached in sweep)" s
