module Process = Slc_device.Process
module Harness = Slc_cell.Harness
module Describe = Slc_prob.Describe
module Telemetry = Slc_obs.Telemetry
module Slc_error = Slc_obs.Slc_error

(* Outer-most context annotation for failures escaping a whole
   extraction: per-simulation failures are already annotated (with seed
   and ξ-point) by [Harness.simulate]'s inner [with_context], which
   wins; this fills in arc/tech for anything raised outside a
   simulation (design construction, fitting preconditions, ...). *)
let flow_context (tech : Slc_device.Tech.t) arc =
  {
    Slc_error.arc = Some (Slc_cell.Arc.name arc);
    tech = Some tech.Slc_device.Tech.name;
    seed = None;
    point = None;
  }

type method_ = Bayes of Prior.pair | Lse | Lut

let method_label = function
  | Bayes _ -> "model+bayes"
  | Lse -> "model+lse"
  | Lut -> "lookup-table"

type seed_status = Seed_ok | Seed_degraded of int | Seed_failed of exn

type population = {
  meth : method_;
  seeds : Process.seed array;
  status : seed_status array;
  predictors : Char_flow.predictor option array;
  train_cost : int;
  predict_td : Process.seed -> Input_space.point -> float;
  predict_sout : Process.seed -> Input_space.point -> float;
}

type seed_models = {
  sm_predictors : Char_flow.predictor option array;
  sm_status : seed_status array;
}

type adaptive = {
  a_rng : Slc_prob.Rng.t;
  a_candidates : int;
  a_gpr_threshold : float;
}

type design =
  | Curated
  | Random_per_seed of Slc_prob.Rng.t
  | Adaptive of adaptive

let adaptive_defaults rng =
  {
    a_rng = rng;
    a_candidates = 24;
    a_gpr_threshold = Char_flow.default_gpr_threshold;
  }

(* One LM scratch workspace per worker domain, reused across every fit
   that domain performs. *)
let lm_slot = Slc_num.Parallel.Slot.make Slc_num.Optimize.lm_workspace

(* Likewise for the GPR surrogate/fallback scratch buffers. *)
let gpr_slot = Slc_num.Parallel.Slot.make Gpr.workspace

(* Sequential expected-information-gain design (ROADMAP item 4; Bai et
   al., arXiv 2505.10799).  Each seed draws a candidate pool from its
   own [split_ix] sub-stream, then spends its budget one simulation at
   a time: refit the delay model on the observations so far, score
   every unused candidate by the D-optimal gain β(ξ)·g̃ᵀA⁻¹g̃ against
   the incremental MAP posterior information A ([Map_fit.information]),
   simulate the argmax, repeat.  When the analytical form's residuals
   on the observed points exceed [a_gpr_threshold], a GP surrogate
   takes over the scoring (posterior predictive variance).

   Scheduling independence: every per-seed quantity is a pure function
   of (seed, a_rng, observations of that seed); each round is one
   [simulate_batch] call over every seed's pick, and all cross-seed
   state lives in per-seed array slots written only between the
   parallel phases. *)
let adaptive_seed_datasets ~record_degraded ~record_failed ~min_points
    ~method_ ~tech ~arc ~seeds ~budget ad =
  let ns = Array.length seeds in
  let nc = ad.a_candidates in
  if nc < budget then
    Slc_obs.Slc_error.invalid_input ~site:"Statistical.extract_population"
      "adaptive candidate pool smaller than the budget";
  if not (ad.a_gpr_threshold > 0.0) then
    Slc_obs.Slc_error.invalid_input ~site:"Statistical.extract_population"
      "adaptive gpr threshold must be > 0";
  let prior_delay =
    match method_ with
    | Bayes p -> Some p.Prior.delay
    | Lse -> None
    | Lut -> assert false
  in
  (* Pure per-index derivation, as in [Random_per_seed]: the candidate
     pool (and hence everything downstream) is bitwise independent of
     domain count and evaluation order, and [a_rng] is not advanced. *)
  let cands =
    Array.map
      (fun seed ->
        Input_space.random_fitting_points_rng
          (Slc_prob.Rng.split_ix ad.a_rng seed.Process.index)
          tech ~k:nc)
      seeds
  in
  let ieffs =
    Array.mapi
      (fun si pool ->
        Array.map
          (fun (pt : Input_space.point) ->
            Slc_cell.Equivalent.ieff_with_seed tech seeds.(si) arc
              ~vdd:pt.Harness.vdd)
          pool)
      cands
  in
  (* Per-seed acquisition state; written only by the main thread
     between the parallel select/simulate phases. *)
  let used = Array.init ns (fun _ -> Array.make nc false) in
  let obs_rev = Array.make ns [] in
  let meas_rev = Array.make ns [] in
  let n_fail = Array.make ns 0 in
  let first_exn = Array.make ns None in
  let init_params =
    match method_ with
    | Bayes p -> Timing_model.of_vec p.Prior.delay.Prior.mvn.Slc_prob.Mvn.mu
    | Lse -> Timing_model.default_init
    | Lut -> assert false
  in
  let params = Array.make ns init_params in
  let dirty = Array.make ns false in
  for _round = 1 to budget do
    (* Select each seed's next condition (parallel; pure per seed). *)
    let picks =
      Slc_num.Parallel.map
        (fun si ->
          let obs = Array.of_list (List.rev obs_rev.(si)) in
          let p =
            if not dirty.(si) then params.(si)
            else
              let workspace = Slc_num.Parallel.Slot.get lm_slot in
              match method_ with
              | Bayes prior ->
                Map_fit.fit_params ~workspace ~prior:prior.Prior.delay ~tech
                  obs
              | Lse -> Extract_lse.fit ~workspace obs
              | Lut -> assert false
          in
          let use_gpr =
            Array.length obs >= 2
            && Extract_lse.avg_abs_rel_error p obs > ad.a_gpr_threshold
          in
          let score =
            if use_gpr then begin
              let workspace = Slc_num.Parallel.Slot.get gpr_slot in
              let g =
                Gpr.fit ~workspace tech
                  (Array.map (fun o -> o.Extract_lse.point) obs)
                  (Array.map (fun o -> o.Extract_lse.value) obs)
              in
              fun ci -> Gpr.predict_var ~workspace g cands.(si).(ci)
            end
            else begin
              let information =
                Map_fit.information ?prior:prior_delay ~tech ~at:p obs
              in
              fun ci ->
                Map_fit.predictive_gain ?prior:prior_delay ~tech ~information
                  ~at:p ~ieff:ieffs.(si).(ci)
                  cands.(si).(ci)
            end
          in
          let best = ref (-1) and best_score = ref neg_infinity in
          for ci = 0 to nc - 1 do
            if not used.(si).(ci) then begin
              let s = score ci in
              (* Strict [>]: ties resolve to the lowest candidate
                 index, keeping the selection deterministic. *)
              if s > !best_score then begin
                best := ci;
                best_score := s
              end
            end
          done;
          if !best < 0 then
            (* All remaining scores were non-finite; fall back to the
               first unused candidate rather than stalling. *)
            (try
               for ci = 0 to nc - 1 do
                 if not used.(si).(ci) then begin
                   best := ci;
                   raise Exit
                 end
               done
             with Exit -> ());
          (!best, p))
        (Array.init ns Fun.id)
    in
    Array.iteri
      (fun si (ci, p) ->
        params.(si) <- p;
        dirty.(si) <- false;
        used.(si).(ci) <- true)
      picks;
    (* One batch simulates every seed's chosen point. *)
    let results =
      Harness.simulate_batch tech arc
        (Array.mapi (fun si (ci, _) -> (seeds.(si), cands.(si).(ci))) picks)
    in
    Array.iteri
      (fun si r ->
        let ci, _ = picks.(si) in
        match r with
        | Ok m ->
          meas_rev.(si) <- (ci, m) :: meas_rev.(si);
          obs_rev.(si) <-
            {
              Extract_lse.point = cands.(si).(ci);
              ieff = ieffs.(si).(ci);
              value = m.Harness.td;
            }
            :: obs_rev.(si);
          dirty.(si) <- true
        | Error e ->
          n_fail.(si) <- n_fail.(si) + 1;
          if first_exn.(si) = None then first_exn.(si) <- Some e)
      results
  done;
  (* Package each seed's surviving observations as a dataset, with the
     same degradation ladder as the fixed designs: failures cost only
     their round, and a seed keeps fitting while at least [min_points]
     points survive. *)
  Array.init ns (fun si ->
      let meas = List.rev meas_rev.(si) in
      let dataset () =
        {
          Char_flow.arc;
          points =
            Array.of_list (List.map (fun (ci, _) -> cands.(si).(ci)) meas);
          td = Array.of_list (List.map (fun (_, m) -> m.Harness.td) meas);
          sout = Array.of_list (List.map (fun (_, m) -> m.Harness.sout) meas);
          cost =
            List.fold_left (fun acc (_, m) -> acc + m.Harness.retries + 1) 0
              meas;
        }
      in
      if n_fail.(si) = 0 then Some (dataset ())
      else if budget - n_fail.(si) < min_points then begin
        record_failed si (Option.get first_exn.(si));
        None
      end
      else begin
        record_degraded si n_fail.(si);
        Some (dataset ())
      end)

(* Compact a full-design dataset down to the points whose simulations
   survived.  Only called for seeds with at least one failure — the
   all-ok path never rebuilds its arrays, so a failure elsewhere in the
   batch cannot perturb an unaffected seed's fit. *)
let compact_dataset ~arc ~points ~budget ok ms =
  let keep = ref [] in
  for pi = budget - 1 downto 0 do
    if ok pi then keep := pi :: !keep
  done;
  let keep = Array.of_list !keep in
  let cost = ref 0 in
  Array.iter (fun pi -> cost := !cost + (ms pi).Harness.retries + 1) keep;
  {
    Char_flow.arc;
    points = Array.map (fun pi -> points.(pi)) keep;
    td = Array.map (fun pi -> (ms pi).Harness.td) keep;
    sout = Array.map (fun pi -> (ms pi).Harness.sout) keep;
    cost = !cost;
  }

let extract_seed_models ?(min_points = 2) ~design ~method_ ~tech ~arc ~seeds
    ~budget () =
  if Array.length seeds = 0 then
    Slc_obs.Slc_error.invalid_input ~site:"Statistical.extract_population" "no seeds";
  if budget < 1 then Slc_obs.Slc_error.invalid_input ~site:"Statistical.extract_population" "budget < 1";
  if min_points < 1 then
    Slc_obs.Slc_error.invalid_input ~site:"Statistical.extract_population" "min_points < 1";
  Slc_error.with_context (flow_context tech arc) @@ fun () ->
  Telemetry.with_span Telemetry.span_extract @@ fun () ->
  let ns = Array.length seeds in
  let status = Array.make ns Seed_ok in
  let record_degraded si n_fail =
    status.(si) <- Seed_degraded n_fail;
    Telemetry.incr Telemetry.degraded_seeds
  in
  let record_failed si exn =
    status.(si) <- Seed_failed exn;
    Telemetry.incr Telemetry.failed_seeds
  in
  (* Per-seed predictors, keyed by seed index; [None] marks a failed
     seed (its exception is kept in [status]). *)
  let predictors =
    match method_ with
    | Lut ->
      (* The LUT builds its own grid; the design choice does not apply.
         Its budget simulations are internal to [train_lut], so the
         failure granularity is the whole seed. *)
      let r =
        Slc_num.Parallel.try_map
          (fun seed -> Char_flow.train_lut ~seed tech arc ~budget)
          seeds
      in
      Array.mapi
        (fun si -> function
          | Ok p -> Some p
          | Error e ->
            record_failed si e;
            None)
        r
    | Bayes _ | Lse ->
      let datasets =
        match design with
        | Adaptive ad ->
          adaptive_seed_datasets ~record_degraded ~record_failed ~min_points
            ~method_ ~tech ~arc ~seeds ~budget ad
        | Curated | Random_per_seed _ ->
          let per_seed_points =
            match design with
            | Curated ->
              let pts = Input_space.fitting_points tech ~k:budget in
              Array.make ns pts
            | Random_per_seed rng ->
              (* split_ix is a pure function of (rng state, index): each
                 seed's design is deterministic no matter which domain
                 evaluates it, in what order. *)
              Array.map
                (fun seed ->
                  Input_space.random_fitting_points_rng
                    (Slc_prob.Rng.split_ix rng seed.Process.index)
                    tech ~k:budget)
                seeds
            | Adaptive _ -> assert false
          in
          (* All (seed x point) simulations as one flat lane array
             scheduled by [Harness.simulate_batch], which captures
             per-lane failures without cancelling the batch (so one
             pathological (seed, point) costs exactly one design point,
             not the whole extraction). *)
          let flat =
            Harness.simulate_batch tech arc
              (Array.init (ns * budget) (fun idx ->
                   let si = idx / budget and pi = idx mod budget in
                   (seeds.(si), per_seed_points.(si).(pi))))
          in
          Array.init ns (fun si ->
              let slot pi = flat.((si * budget) + pi) in
              let n_fail = ref 0 in
              let first_exn = ref None in
              for pi = 0 to budget - 1 do
                match slot pi with
                | Ok _ -> ()
                | Error e ->
                  incr n_fail;
                  if !first_exn = None then first_exn := Some e
              done;
              if !n_fail = 0 then begin
                (* The failure-free path is byte-for-byte the historical
                   one: same arrays, same order, same fit inputs. *)
                let m pi =
                  match slot pi with Ok m -> m | Error _ -> assert false
                in
                let cost = ref 0 in
                for pi = 0 to budget - 1 do
                  (* Each attempt of the retry loop is one simulator run. *)
                  cost := !cost + (m pi).Harness.retries + 1
                done;
                Some
                  {
                    Char_flow.arc;
                    points = per_seed_points.(si);
                    td = Array.init budget (fun pi -> (m pi).Harness.td);
                    sout = Array.init budget (fun pi -> (m pi).Harness.sout);
                    cost = !cost;
                  }
              end
              else if budget - !n_fail < min_points then begin
                record_failed si (Option.get !first_exn);
                None
              end
              else begin
                record_degraded si !n_fail;
                let m pi =
                  match slot pi with Ok m -> m | Error _ -> assert false
                in
                Some
                  (compact_dataset ~arc ~points:per_seed_points.(si) ~budget
                     (fun pi -> Result.is_ok (slot pi))
                     m)
              end)
      in
      (* For the adaptive design, a seed whose analytical fit stays
         poor on its own training points falls back to a GPR model. *)
      let fallback =
        match design with
        | Adaptive ad ->
          Some
            (fun ds p ->
              let workspace = Slc_num.Parallel.Slot.get gpr_slot in
              Char_flow.with_gpr_fallback ~workspace
                ~threshold:ad.a_gpr_threshold tech ds p)
        | Curated | Random_per_seed _ -> None
      in
      (* Per-seed fits, each on a worker-owned LM workspace; failed
         seeds are skipped. *)
      Telemetry.with_span Telemetry.span_fit @@ fun () ->
      Slc_num.Parallel.map
        (fun si ->
          match datasets.(si) with
          | None -> None
          | Some ds ->
            let workspace = Slc_num.Parallel.Slot.get lm_slot in
            let seed = seeds.(si) in
            let p =
              match method_ with
              | Bayes prior ->
                Char_flow.train_bayes_on ~workspace ~seed ~prior tech ds
              | Lse -> Char_flow.train_lse_on ~workspace ~seed tech ds
              | Lut -> assert false
            in
            Some
              (match fallback with None -> p | Some f -> f ds p))
        (Array.init ns Fun.id)
  in
  { sm_predictors = predictors; sm_status = status }

let assemble ~method_ ~seeds ~predictors ~status ~train_cost =
  let ns = Array.length seeds in
  if Array.length predictors <> ns || Array.length status <> ns then
    Slc_obs.Slc_error.invalid_input ~site:"Statistical.assemble" "array length mismatch";
  let find seed =
    if seed.Process.index < 0 || seed.Process.index >= Array.length seeds then
      Slc_obs.Slc_error.invalid_input ~site:"Statistical.population" "unknown seed";
    match predictors.(seed.Process.index) with
    | Some p -> p
    | None -> (
      match status.(seed.Process.index) with
      | Seed_failed e -> raise e
      | Seed_ok | Seed_degraded _ -> assert false)
  in
  {
    meth = method_;
    seeds;
    status;
    predictors;
    train_cost;
    predict_td = (fun seed pt -> (find seed).Char_flow.predict_td pt);
    predict_sout = (fun seed pt -> (find seed).Char_flow.predict_sout pt);
  }

let extract_population_design ?min_points ~design ~method_ ~tech ~arc ~seeds
    ~budget () =
  let before = Harness.sim_count () in
  let { sm_predictors; sm_status } =
    extract_seed_models ?min_points ~design ~method_ ~tech ~arc ~seeds ~budget
      ()
  in
  assemble ~method_ ~seeds ~predictors:sm_predictors ~status:sm_status
    ~train_cost:(Harness.sim_count () - before)

let extract_population ?min_points ~method_ ~tech ~arc ~seeds ~budget () =
  extract_population_design ?min_points ~design:Curated ~method_ ~tech ~arc
    ~seeds ~budget ()

let seed_surviving pop seed =
  match pop.status.(seed.Process.index) with
  | Seed_failed _ -> false
  | Seed_ok | Seed_degraded _ -> true

let predict_samples pop pt ~td =
  let surviving = Array.of_list (List.filter (seed_surviving pop) (Array.to_list pop.seeds)) in
  Array.map
    (fun seed ->
      if td then pop.predict_td seed pt else pop.predict_sout seed pt)
    surviving

let predict_density pop pt ~td ~grid =
  if grid < 2 then
    Slc_obs.Slc_error.invalid_input ~site:"Statistical.predict_density"
      "grid must be >= 2";
  let samples = predict_samples pop pt ~td in
  if Array.length samples < 2 then
    Slc_obs.Slc_error.invalid_input ~site:"Statistical.predict_density"
      (Printf.sprintf "needs >= 2 surviving seeds, have %d"
         (Array.length samples));
  let kde = Slc_prob.Kde.fit samples in
  let xs = Slc_prob.Kde.grid kde grid in
  let ps = Slc_prob.Kde.evaluate kde xs in
  Array.init (Array.length xs) (fun i -> (xs.(i), ps.(i)))

type baseline = {
  points : Input_space.point array;
  mu_td : float array;
  sigma_td : float array;
  mu_sout : float array;
  sigma_sout : float array;
  samples_td : float array array;
  samples_sout : float array array;
  failed : (int * int) list;
  cost : int;
}

let monte_carlo_baseline ~tech ~arc ~seeds ~points =
  if Array.length seeds < 2 then
    Slc_obs.Slc_error.invalid_input ~site:"Statistical.monte_carlo_baseline" "need >= 2 seeds";
  Slc_error.with_context (flow_context tech arc) @@ fun () ->
  Telemetry.with_span Telemetry.span_baseline @@ fun () ->
  let before = Harness.sim_count () in
  let np = Array.length points in
  let ns = Array.length seeds in
  (* Simulate each (point, seed) once, reading both metrics.  The work
     list is flattened to individual (seed, point) lanes scheduled over
     the domain pool by [Harness.simulate_batch].  Failed pairs are
     recorded and excluded from the moment estimates; their sample
     slots hold NaN. *)
  let flat =
    Array.map
      (Result.map (fun m -> (m.Harness.td, m.Harness.sout)))
      (Harness.simulate_batch tech arc
         (Array.init (np * ns) (fun idx ->
              (seeds.(idx mod ns), points.(idx / ns)))))
  in
  let failed = ref [] in
  for idx = (np * ns) - 1 downto 0 do
    match flat.(idx) with
    | Error _ -> failed := (idx / ns, idx mod ns) :: !failed
    | Ok _ -> ()
  done;
  let sample get i j =
    match flat.((i * ns) + j) with Ok v -> get v | Error _ -> Float.nan
  in
  let samples_td = Array.init np (fun i -> Array.init ns (sample fst i)) in
  let samples_sout = Array.init np (fun i -> Array.init ns (sample snd i)) in
  (* Moments over the survivors of each point.  With no failures the
     survivor array IS the sample array, so the statistics are
     unchanged bit for bit. *)
  let survivors samples i =
    let row = samples.(i) in
    let n_fail =
      List.length (List.filter (fun (p, _) -> p = i) !failed)
    in
    if n_fail = 0 then row
    else begin
      let out = Array.make (ns - n_fail) 0.0 in
      let k = ref 0 in
      Array.iteri
        (fun j v ->
          if not (List.mem (i, j) !failed) then begin
            out.(!k) <- v;
            incr k
          end)
        row;
      out
    end
  in
  let moment f samples = Array.init np (fun i -> f (survivors samples i)) in
  {
    points;
    mu_td = moment Describe.mean samples_td;
    sigma_td = moment Describe.std samples_td;
    mu_sout = moment Describe.mean samples_sout;
    sigma_sout = moment Describe.std samples_sout;
    samples_td;
    samples_sout;
    failed = !failed;
    cost = Harness.sim_count () - before;
  }

type stat_errors = {
  e_mu_td : float;
  e_sigma_td : float;
  e_mu_sout : float;
  e_sigma_sout : float;
}

let evaluate pop base =
  let n = Array.length base.points in
  if n = 0 then Slc_obs.Slc_error.invalid_input ~site:"Statistical.evaluate" "empty baseline";
  let acc_mu_td = ref 0.0
  and acc_sg_td = ref 0.0
  and acc_mu_so = ref 0.0
  and acc_sg_so = ref 0.0 in
  Array.iteri
    (fun i pt ->
      let td = predict_samples pop pt ~td:true in
      let so = predict_samples pop pt ~td:false in
      let mu_td = Describe.mean td and sg_td = Describe.std td in
      let mu_so = Describe.mean so and sg_so = Describe.std so in
      acc_mu_td :=
        !acc_mu_td +. (Float.abs (mu_td -. base.mu_td.(i)) /. base.mu_td.(i));
      acc_sg_td :=
        !acc_sg_td
        +. (Float.abs (sg_td -. base.sigma_td.(i)) /. base.sigma_td.(i));
      acc_mu_so :=
        !acc_mu_so
        +. (Float.abs (mu_so -. base.mu_sout.(i)) /. base.mu_sout.(i));
      acc_sg_so :=
        !acc_sg_so
        +. (Float.abs (sg_so -. base.sigma_sout.(i)) /. base.sigma_sout.(i)))
    base.points;
  let nf = float_of_int n in
  {
    e_mu_td = !acc_mu_td /. nf;
    e_sigma_td = !acc_sg_td /. nf;
    e_mu_sout = !acc_mu_so /. nf;
    e_sigma_sout = !acc_sg_so /. nf;
  }
