module Tech = Slc_device.Tech
module Cells = Slc_cell.Cells
module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness
module Equivalent = Slc_cell.Equivalent
module Mvn = Slc_prob.Mvn
module Interp = Slc_num.Interp
module Vec = Slc_num.Vec

type metric = Delay | Slew

let metric_to_string = function Delay -> "delay" | Slew -> "slew"

type fitted_arc = {
  tech_name : string;
  arc_name : string;
  params : Timing_model.params;
  fit_error : float;
}

type t = {
  metric : metric;
  mvn : Mvn.t;
  beta : Interp.grid3;
  provenance : fitted_arc list;
  learn_cost : int;
}

let grid_levels_default = [| 4; 4; 3 |]

(* One historical simulation record: both metrics read from one run. *)
type raw = {
  r_tech : Tech.t;
  r_arc : Arc.t;
  r_ieffs : float array;  (* per grid point *)
  r_td : float array;
  r_sout : float array;
  r_points : Harness.point array;
}

let axes_of_grid_levels levels =
  Array.map (fun n -> Vec.linspace 0.05 0.95 n) levels

let gather ~cells ~grid_levels historical =
  let unit_points = Input_space.unit_grid ~levels:grid_levels in
  List.concat_map
    (fun tech ->
      List.concat_map
        (fun cell ->
          List.map
            (fun arc ->
              let points =
                Array.map (Input_space.denormalize tech) unit_points
              in
              let eq = Equivalent.of_arc tech arc in
              let ieffs =
                Array.map
                  (fun (p : Harness.point) ->
                    Equivalent.ieff eq ~vdd:p.Harness.vdd)
                  points
              in
              let td = Array.make (Array.length points) 0.0 in
              let sout = Array.make (Array.length points) 0.0 in
              Array.iteri
                (fun i p ->
                  let m = Harness.simulate tech arc p in
                  td.(i) <- m.Harness.td;
                  sout.(i) <- m.Harness.sout)
                points;
              {
                r_tech = tech;
                r_arc = arc;
                r_ieffs = ieffs;
                r_td = td;
                r_sout = sout;
                r_points = points;
              })
            (Arc.all_of_cell cell))
        cells)
    historical

let build ~metric ~grid_levels ~beta_rel_floor ~learn_cost raws =
  if raws = [] then Slc_obs.Slc_error.invalid_input ~site:"Prior.build" "no historical data";
  let values r = match metric with Delay -> r.r_td | Slew -> r.r_sout in
  (* Fit each historical arc and keep its per-condition relative
     residuals. *)
  let fits =
    List.map
      (fun r ->
        let obs =
          Array.init (Array.length r.r_points) (fun i ->
              {
                Extract_lse.point = r.r_points.(i);
                ieff = r.r_ieffs.(i);
                value = (values r).(i);
              })
        in
        let params = Extract_lse.fit obs in
        let residuals =
          Array.map
            (fun (o : Extract_lse.observation) ->
              Timing_model.rel_residual params ~ieff:o.ieff o.point
                ~observed:o.value)
            obs
        in
        let fitted =
          {
            tech_name = r.r_tech.Tech.name;
            arc_name = Arc.name r.r_arc;
            params;
            fit_error = Extract_lse.avg_abs_rel_error params obs;
          }
        in
        (fitted, residuals))
      raws
  in
  let provenance = List.map fst fits in
  let param_rows =
    Array.of_list
      (List.map (fun f -> Timing_model.to_vec f.params) provenance)
  in
  let mvn =
    let fitted = Mvn.of_samples param_rows in
    (* Floor the per-parameter prior sigma: a handful of historical arcs
       that happen to agree must not produce an overconfident prior
       that would crush abundant target-node data. *)
    let sigma_floor = [| 0.03; 0.15; 0.03; 0.03 |] in
    let cov =
      Slc_num.Mat.init 4 4 (fun i j ->
          let v = Slc_num.Mat.get (fitted : Mvn.t).Mvn.cov i j in
          if i = j then Float.max v (sigma_floor.(i) *. sigma_floor.(i))
          else v)
    in
    Mvn.make ~mu:(fitted : Mvn.t).Mvn.mu ~cov
  in
  (* Precision per normalized grid point, Eq. 9 over the pooled
     historical residuals. *)
  let n_points =
    match fits with (_, r) :: _ -> Array.length r | [] -> 0
  in
  let beta_flat =
    Array.init n_points (fun i ->
        let es = List.map (fun (_, residuals) -> residuals.(i)) fits in
        let n = float_of_int (List.length es) in
        let mean_sq =
          List.fold_left (fun acc e -> acc +. (e *. e)) 0.0 es /. n
        in
        let mean_abs =
          List.fold_left (fun acc e -> acc +. Float.abs e) 0.0 es /. n
        in
        let denom = mean_sq -. (mean_abs *. mean_abs) in
        let denom = Float.max denom (beta_rel_floor *. beta_rel_floor) in
        1.0 /. denom)
  in
  (* The unit grid enumerates coordinates in row-major (sin, cload,
     vdd) order matching Sampling.full_factorial. *)
  let axes = axes_of_grid_levels grid_levels in
  let n_s = grid_levels.(0) and n_c = grid_levels.(1) and n_v = grid_levels.(2) in
  if n_s * n_c * n_v <> n_points then
    Slc_obs.Slc_error.invalid_input ~site:"Prior.build" "grid shape mismatch";
  let values3 =
    Array.init n_s (fun i ->
        Array.init n_c (fun j ->
            Array.init n_v (fun k -> beta_flat.((((i * n_c) + j) * n_v) + k))))
  in
  let axis a =
    match Interp.axis a with
    | Some a -> a
    | None ->
      Slc_obs.Slc_error.invalid_input ~site:"Prior.build" "empty grid axis"
  in
  let beta =
    { Interp.axes = (axis axes.(0), axis axes.(1), axis axes.(2)); values3 }
  in
  { metric; mvn; beta; provenance; learn_cost }

type pair = { delay : t; slew : t }

let learn_pair ?(cells = Cells.paper_set) ?(grid_levels = grid_levels_default)
    ~historical () =
  if historical = [] then Slc_obs.Slc_error.invalid_input ~site:"Prior.learn_pair" "no historical nodes";
  let before = Harness.sim_count () in
  let raws = gather ~cells ~grid_levels historical in
  let learn_cost = Harness.sim_count () - before in
  let beta_rel_floor = 0.01 in
  {
    delay = build ~metric:Delay ~grid_levels ~beta_rel_floor ~learn_cost raws;
    slew = build ~metric:Slew ~grid_levels ~beta_rel_floor ~learn_cost raws;
  }

let beta_at t tech point =
  let u = Input_space.normalize tech point in
  let xs, ys, zs = t.beta.Interp.axes in
  (* Clamp to the grid span: precision is never extrapolated beyond the
     historically observed conditions. *)
  let clamp (axis : Interp.axis) x =
    let axis = (axis :> float array) in
    Float.max axis.(0) (Float.min axis.(Array.length axis - 1) x)
  in
  Interp.trilinear t.beta (clamp xs u.(0)) (clamp ys u.(1)) (clamp zs u.(2))

let constant_beta t =
  let xs, ys, zs = t.beta.Interp.axes in
  let acc = ref 0.0 and n = ref 0 in
  Array.iter
    (fun plane ->
      Array.iter
        (fun row ->
          Array.iter
            (fun v ->
              acc := !acc +. v;
              incr n)
            row)
        plane)
    t.beta.Interp.values3;
  let avg = !acc /. float_of_int !n in
  let values3 =
    Array.map (Array.map (Array.map (fun _ -> avg))) t.beta.Interp.values3
  in
  { t with beta = { Interp.axes = (xs, ys, zs); values3 } }

let pp_summary ppf t =
  let mu = (t.mvn : Mvn.t).Mvn.mu in
  Format.fprintf ppf "prior(%s): mu=%a from %d historical arcs, %d sims@."
    (metric_to_string t.metric) Timing_model.pp (Timing_model.of_vec mu)
    (List.length t.provenance) t.learn_cost;
  List.iter
    (fun f ->
      Format.fprintf ppf "  %-6s %-16s %a  err=%.2f%%@." f.tech_name
        f.arc_name Timing_model.pp f.params (100.0 *. f.fit_error))
    t.provenance
