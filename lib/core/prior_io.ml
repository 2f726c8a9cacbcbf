module Mvn = Slc_prob.Mvn
module Mat = Slc_num.Mat
module Interp = Slc_num.Interp

let fl x = Printf.sprintf "%.17g" x

let write_one ppf (p : Prior.t) =
  Format.fprintf ppf "metric %s@." (Prior.metric_to_string p.Prior.metric);
  let mvn = p.Prior.mvn in
  Format.fprintf ppf "mu %s@."
    (String.concat " " (Array.to_list (Array.map fl (mvn : Mvn.t).Mvn.mu)));
  let cov = mvn.Mvn.cov in
  let flat = ref [] in
  for i = 3 downto 0 do
    for j = 3 downto 0 do
      flat := fl (Mat.get cov i j) :: !flat
    done
  done;
  Format.fprintf ppf "cov %s@." (String.concat " " !flat);
  let xs, ys, zs = p.Prior.beta.Interp.axes in
  let axis (a : Interp.axis) =
    let a = (a :> float array) in
    Printf.sprintf "%d %s" (Array.length a)
      (String.concat " " (Array.to_list (Array.map fl a)))
  in
  Format.fprintf ppf "axis %s@." (axis xs);
  Format.fprintf ppf "axis %s@." (axis ys);
  Format.fprintf ppf "axis %s@." (axis zs);
  let betas = ref [] in
  Array.iter
    (fun plane ->
      Array.iter (fun row -> Array.iter (fun v -> betas := fl v :: !betas) row)
      plane)
    p.Prior.beta.Interp.values3;
  Format.fprintf ppf "beta %s@." (String.concat " " (List.rev !betas));
  Format.fprintf ppf "provenance %d@." (List.length p.Prior.provenance);
  List.iter
    (fun (f : Prior.fitted_arc) ->
      let q = f.Prior.params in
      Format.fprintf ppf "prov %s %s %s %s %s %s %s@." f.Prior.tech_name
        f.Prior.arc_name
        (fl q.Timing_model.kd)
        (fl q.Timing_model.cpar)
        (fl q.Timing_model.v_off)
        (fl q.Timing_model.alpha)
        (fl f.Prior.fit_error))
    p.Prior.provenance;
  Format.fprintf ppf "cost %d@." p.Prior.learn_cost

let write ppf (pair : Prior.pair) =
  Format.fprintf ppf "slc-prior 1@.";
  write_one ppf pair.Prior.delay;
  write_one ppf pair.Prior.slew;
  Format.fprintf ppf "end@."

let to_string pair = Format.asprintf "%a" write pair

(* ------------------------------------------------------------------ *)

module R = Slc_num.Line_reader

let fail = R.fail

let parse_one c =
  let metric =
    match R.expect c "metric" with
    | [ "delay" ] -> Prior.Delay
    | [ "slew" ] -> Prior.Slew
    | _ -> fail "bad metric"
  in
  let mu = R.floats (R.expect c "mu") in
  if Array.length mu <> 4 then fail "mu needs 4 values";
  let cov_arr = R.floats (R.expect c "cov") in
  if Array.length cov_arr <> 16 then fail "cov needs 16 values";
  let cov = Mat.init 4 4 (fun i j -> cov_arr.((i * 4) + j)) in
  let xs = R.axis "sin" (R.expect c "axis") in
  let ys = R.axis "cload" (R.expect c "axis") in
  let zs = R.axis "vdd" (R.expect c "axis") in
  let betas = R.floats (R.expect c "beta") in
  let dim (a : Interp.axis) = Array.length (a :> float array) in
  let n_s = dim xs and n_c = dim ys and n_v = dim zs in
  if Array.length betas <> n_s * n_c * n_v then fail "beta size mismatch";
  let values3 =
    Array.init n_s (fun i ->
        Array.init n_c (fun j ->
            Array.init n_v (fun k -> betas.((((i * n_c) + j) * n_v) + k))))
  in
  let n_prov =
    match R.expect c "provenance" with
    | [ n ] -> R.int n
    | _ -> fail "bad provenance count"
  in
  let provenance =
    List.init n_prov (fun _ ->
        match R.expect c "prov" with
        | [ tech_name; arc_name; kd; cpar; v_off; alpha; err ] ->
          {
            Prior.tech_name;
            arc_name;
            params =
              {
                Timing_model.kd = R.float kd;
                cpar = R.float cpar;
                v_off = R.float v_off;
                alpha = R.float alpha;
              };
            fit_error = R.float err;
          }
        | _ -> fail "bad prov line")
  in
  let learn_cost =
    match R.expect c "cost" with
    | [ n ] -> R.int n
    | _ -> fail "bad cost"
  in
  let mvn =
    match Mvn.make ~mu ~cov with
    | m -> m
    | exception Slc_obs.Slc_error.Invalid_input _ ->
      fail "cov not positive definite"
  in
  {
    Prior.metric;
    mvn;
    beta = { Interp.axes = (xs, ys, zs); values3 };
    provenance;
    learn_cost;
  }

let parse src =
  let c = R.of_string src in
  (match R.fields (R.next c) with
  | [ "slc-prior"; "1" ] -> ()
  | _ -> fail "bad header (want: slc-prior 1)");
  let delay = parse_one c in
  let slew = parse_one c in
  (match R.fields (R.next c) with
  | [ "end" ] -> ()
  | _ -> fail "missing end marker");
  R.finish c;
  if delay.Prior.metric <> Prior.Delay then fail "first block must be delay";
  if slew.Prior.metric <> Prior.Slew then fail "second block must be slew";
  { Prior.delay; slew }

let save path pair =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string pair))

let load path = parse (In_channel.with_open_text path In_channel.input_all)
