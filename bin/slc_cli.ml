(* slc-cli: command-line driver for the statistical library
   characterization experiments.

   Each experiment subcommand regenerates one of the paper's tables or
   figures (as plain-text series) at a configurable scale; [slc all]
   regenerates all of them plus the ablations and extensions, and is
   the reproduction artifact EXPERIMENTS.md reports. *)

open Cmdliner
open Slc_core
module Tech = Slc_device.Tech
module Cells = Slc_cell.Cells
module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness
module Store = Slc_store.Store

let std = Format.std_formatter

(* A scale must be a finite positive number; anything else is a usage
   error, whether it came from --scale or from SLC_SCALE. *)
let scale_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0.0 -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive number" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let scale_arg =
  let doc = "Experiment scale (1.0 = defaults; also via SLC_SCALE)." in
  Arg.(
    value & opt scale_conv 1.0
    & info [ "s"; "scale" ] ~doc ~env:(Cmd.Env.info "SLC_SCALE"))

let tech_arg default =
  let doc = "Technology node (n14, n20, n28, n32, n40, n45)." in
  Arg.(value & opt string default & info [ "t"; "tech" ] ~doc)

let tech_of_name name =
  match Tech.by_name name with
  | t -> t
  | exception Not_found ->
    Printf.eprintf "unknown technology %S\n" name;
    exit 2

let tech_term default = Term.(const tech_of_name $ tech_arg default)

let config_term = Term.(const Config.with_scale $ scale_arg)

let store_arg =
  let doc =
    "Persistent characterization store directory (created if missing). \
     Artifacts found there are reused instead of re-simulated; new ones \
     are written back, so a second identical invocation runs zero \
     simulations."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~doc ~docv:"DIR")

let store_of = function
  | None -> None
  | Some dir -> (
    match Store.open_ dir with
    | st -> Some st
    | exception Slc_obs.Slc_error.Store_failed f ->
      Printf.eprintf "store: %s\n" (Slc_obs.Slc_error.store_fault_message f);
      exit 2)

(* A prior file named on the command line: a missing or malformed file
   is one line on stderr and exit 2. *)
let load_prior path =
  match Prior_io.load path with
  | p -> p
  | exception Sys_error m ->
    Printf.eprintf "%s\n" m;
    exit 2
  | exception Slc_num.Line_reader.Malformed m ->
    Printf.eprintf "%s: malformed prior: %s\n" path m;
    exit 2

(* The process's one prior source for the subcommands without a
   store: each target node's prior is learned once and shared by every
   section that asks for it. *)
let priors_term = Term.(const Store.prior_source $ const None)

(* Runs [f] and prints its cost: [\[N simulator runs, T s\]], prefixed
   by the section name inside [slc all]. *)
let timed ?section f =
  let t0 = Unix.gettimeofday () in
  Harness.reset_sim_count ();
  f ();
  Format.fprintf std "[%s%d simulator runs, %.1f s]@."
    (match section with Some s -> s ^ ": " | None -> "")
    (Harness.sim_count ())
    (Unix.gettimeofday () -. t0)

(* With SLC_TELEMETRY=1 every subcommand appends the pipeline counters
   and spans (retries, recoveries, cache traffic, ...). *)
let telemetry_report () =
  if Slc_obs.Telemetry.on () then Slc_obs.Telemetry.report std

let with_timer f =
  timed f;
  telemetry_report ()

(* ------------------------------------------------------------------ *)
(* The paper's experiments.  Each body prints one table or figure; a
   subcommand runs one of them, [slc all] runs every one in turn. *)

let table1 () = Exp_model.print_table1 std (Exp_model.table1 ())

let fig2 tech () =
  Exp_model.print_invariance std
    ~title:"Fig 2: T*Ieff/(Vdd+V') constancy vs Vdd"
    (Exp_model.fig2 ~tech ())

let fig3 tech () =
  Exp_model.print_invariance std
    ~title:"Fig 3: Td/(Cload+Cpar+a*Sin) constancy vs (Cload,Sin)"
    (Exp_model.fig3 ~tech ())

let fig5 tech () = Exp_nominal.print_fig5 std (Exp_nominal.fig5 tech)

let fig6 config priors tech () =
  Exp_nominal.print_fig6 std
    (Exp_nominal.fig6 ~config ~tech ~prior:(priors tech) ())

let fig78 config priors tech () =
  Exp_statistical.print_fig78 std
    (Exp_statistical.fig78 ~config ~tech ~prior:(priors tech) ())

let fig9 config priors tech () =
  Exp_statistical.print_fig9 std
    (Exp_statistical.fig9 ~config ~tech ~prior:(priors tech) ())

(* The headline claim is a simulator-run count, so the section also
   prints it from the telemetry [simulations] counter, switched on for
   the section: the same counter [slc serve]'s [stats] reports. *)
let adaptive_budget config priors () =
  let module Telemetry = Slc_obs.Telemetry in
  let was_on = Telemetry.on () in
  Telemetry.enable ();
  let sims0 = Telemetry.read Telemetry.simulations in
  Exp_statistical.print_adaptive_budget std
    (Exp_statistical.adaptive_budget ~config ~tech:Tech.n28
       ~prior:(priors Tech.n28) ());
  Format.fprintf std "[telemetry simulations counter: %d]@."
    (Telemetry.read Telemetry.simulations - sims0);
  if not was_on then Telemetry.disable ()

let ablations config priors () =
  let tech = Tech.n14 in
  let prior = priors tech in
  Exp_ablation.print_rows std ~title:"Ablation: learned vs constant beta"
    (Exp_ablation.ablation_beta ~config ~tech ~prior ());
  Exp_ablation.print_rows std ~title:"Ablation: historical-library selection"
    (Exp_ablation.ablation_history ~config ~tech ~prior ());
  Exp_ablation.print_rows std ~title:"Ablation: pooled vs chained prior"
    (Exp_ablation.ablation_chain ~config ~tech ~prior ());
  Exp_ablation.print_rows std
    ~title:"Ablation: curated vs random fitting design"
    (Exp_ablation.ablation_design ~config ~tech ~prior ());
  Exp_ablation.print_complexity std (Exp_ablation.ablation_model_complexity ());
  Exp_ablation.print_sampling std (Exp_ablation.ablation_sampling ())

let vt_transfer config () =
  Exp_extension.print_result std (Exp_extension.vt_transfer ~config ())

let dff_setup () =
  let module Seq = Slc_cell.Seq in
  let tech = Tech.n14 in
  List.iter
    (fun vdd ->
      let setup data_rises =
        Seq.setup_time ~resolution:2e-13 tech ~vdd ~data_rises
      in
      let rise = setup true in
      let fall = setup false in
      let hold = Seq.hold_time ~resolution:2e-13 tech ~vdd ~data_rises:true in
      Format.fprintf std
        "vdd=%.2fV: setup(rise)=%.2fps  setup(fall)=%.2fps  hold(rise)=%.2fps@."
        vdd (rise *. 1e12) (fall *. 1e12) (hold *. 1e12))
    [ 0.8; 0.7 ]

let ring () =
  let module Ring = Slc_cell.Ring in
  List.iter
    (fun vdd ->
      let r = Ring.simulate ~stages:5 Tech.n14 ~vdd in
      Format.fprintf std "vdd=%.2fV: f=%.2f GHz, stage delay %.2f ps (%d cycles)@."
        vdd (r.Ring.frequency /. 1e9) (r.Ring.stage_delay *. 1e12)
        r.Ring.cycles_measured)
    [ 0.8; 0.7 ]

(* The consumer-side check: a 5-stage path timed transistor-level and
   through the Bayes-characterized compact models. *)
let ssta_check priors () =
  let module Chain = Slc_cell.Chain in
  let tech = Tech.n14 in
  let chain =
    Chain.make tech
      [
        Chain.stage Cells.inv "A";
        Chain.stage ~wire_cap:1e-15 Cells.nand2 "A";
        Chain.stage Cells.nor2 "B";
        Chain.stage Cells.inv "A";
        Chain.stage Cells.aoi21 "A";
      ]
  in
  let truth = Chain.simulate chain ~sin:5e-12 ~vdd:0.8 ~in_rises:true in
  let oracle = Slc_ssta.Oracle.bayes_bank ~prior:(priors tech) tech ~k:3 in
  let module Sdag = Slc_ssta.Sdag in
  let dag, chain_in, chain_out = Sdag.of_chain chain ~vdd:0.8 in
  let input_arrivals name =
    if String.equal name (Sdag.net_name dag chain_in) then
      Sdag.input_edge ~at:0.0 ~slew:5e-12 ~rises:true
    else { Sdag.rise = None; fall = None }
  in
  (* Five inverting stages turn the rising input into a falling output. *)
  let model =
    match Sdag.analyze dag oracle ~input_arrivals chain_out with
    | { Sdag.fall = Some e; _ } -> e.Sdag.at
    | _ -> assert false
  in
  let reference = truth.Chain.total_delay in
  Format.fprintf std
    "5-stage path: transistor-level %.2f ps, model-based %.2f ps (%+.1f%%)@."
    (reference *. 1e12) (model *. 1e12)
    (100.0 *. (model -. reference) /. reference)

(* A subcommand that runs one experiment body under [with_timer]. *)
let experiment name ~doc body =
  Cmd.v (Cmd.info name ~doc) Term.(const with_timer $ body)

let table1_cmd =
  experiment "table1" ~doc:"Extracted model parameters (paper Table I)"
    Term.(const table1)

let fig2_cmd =
  experiment "fig2" ~doc:"Vdd-invariance of the timing model (Fig 2)"
    Term.(const fig2 $ tech_term "n14")

let fig3_cmd =
  experiment "fig3" ~doc:"(Cload,Sin)-invariance of the timing model (Fig 3)"
    Term.(const fig3 $ tech_term "n14")

let fig5_cmd =
  experiment "fig5" ~doc:"Validation input spread (Fig 5)"
    Term.(const fig5 $ tech_term "n28")

let fig6_cmd =
  experiment "fig6"
    ~doc:"Nominal error vs training samples, Bayes/LSE/LUT (Fig 6)"
    Term.(const fig6 $ config_term $ priors_term $ tech_term "n14")

let fig78_cmd =
  experiment "fig78"
    ~doc:"Statistical mean/sigma errors vs training samples (Figs 7-8)"
    Term.(const fig78 $ config_term $ priors_term $ tech_term "n28")

let fig9_cmd =
  experiment "fig9" ~doc:"Delay pdf at a low-Vdd condition (Fig 9)"
    Term.(const fig9 $ config_term $ priors_term $ tech_term "n28")

let ablations_cmd =
  let run config priors () =
    ablations config priors ();
    vt_transfer config ()
  in
  experiment "ablations" ~doc:"Design-choice ablations and multi-Vt transfer"
    Term.(const run $ config_term $ priors_term)

let characterize_cmd =
  let cell_arg =
    Arg.(value & opt string "NAND2" & info [ "c"; "cell" ] ~doc:"Cell name.")
  in
  let pin_arg = Arg.(value & opt string "A" & info [ "p"; "pin" ] ~doc:"Input pin.") in
  let k_arg =
    Arg.(value & opt int 2 & info [ "k" ] ~doc:"Fitting simulations.")
  in
  let run tech cell pin k store_dir =
    let tech = tech_of_name tech in
    let cell =
      match Cells.by_name cell with
      | c -> c
      | exception Not_found ->
        Printf.eprintf "unknown cell %S\n" cell;
        exit 2
    in
    let arc =
      match Arc.find cell ~pin ~out_dir:Arc.Fall with
      | a -> a
      | exception Not_found ->
        Printf.eprintf "no falling arc on pin %S\n" pin;
        exit 2
    in
    with_timer (fun () ->
        let store = store_of store_dir in
        Format.fprintf std "Learning prior from %s...@."
          (String.concat ","
             (List.map (fun t -> t.Tech.name) (Tech.historical_for tech)));
        let prior = Store.prior_source store tech in
        let train () = Char_flow.train_bayes ~prior tech arc ~k in
        let p =
          match store with
          | None -> train ()
          | Some st ->
            Store.get_predictor st
              ~key:
                (Store.predictor_key
                   ~prior_fp:(Store.prior_fingerprint prior)
                   ~tech ~arc ~k ~seed:None ())
              ~seed:None ~tech ~arc train
        in
        let ds =
          Char_flow.simulate_dataset tech arc
            (Input_space.validation_set ~n:100 ~seed:1 tech)
        in
        let e = Char_flow.evaluate p ds in
        Format.fprintf std
          "%s in %s with k=%d: Td err %.2f%%, Sout err %.2f%%@."
          (Arc.name arc) tech.Tech.name k
          (100.0 *. e.Char_flow.td_err)
          (100.0 *. e.Char_flow.sout_err))
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Characterize one arc with the Bayesian flow and report error")
    Term.(const run $ tech_arg "n14" $ cell_arg $ pin_arg $ k_arg $ store_arg)

let prior_cmd =
  let save_arg =
    Arg.(value & opt (some string) None & info [ "save" ] ~doc:"Save the learned prior to FILE.")
  in
  let load_arg =
    Arg.(value & opt (some string) None & info [ "load" ] ~doc:"Load a prior from FILE instead of learning.")
  in
  let run tech save load =
    let tech = tech_of_name tech in
    with_timer (fun () ->
        let prior =
          match load with
          | Some path ->
            Format.fprintf std "loading prior from %s@." path;
            load_prior path
          | None ->
            Format.fprintf std "learning prior from %s@."
              (String.concat ","
                 (List.map (fun t -> t.Tech.name) (Tech.historical_for tech)));
            Store.prior_source None tech
        in
        Prior.pp_summary std prior.Prior.delay;
        match save with
        | Some path ->
          Prior_io.save path prior;
          Format.fprintf std "saved prior to %s@." path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "prior"
       ~doc:"Learn (or load) the historical prior; optionally save it")
    Term.(const run $ tech_arg "n14" $ save_arg $ load_arg)

let corners_cmd =
  let cell_arg =
    Arg.(value & opt string "INV" & info [ "c"; "cell" ] ~doc:"Cell name.")
  in
  let run tech cell =
    let tech0 = tech_of_name tech in
    let cell =
      match Cells.by_name cell with
      | c -> c
      | exception Not_found ->
        Printf.eprintf "unknown cell %S\n" cell;
        exit 2
    in
    let arc = Arc.find cell ~pin:"A" ~out_dir:Arc.Fall in
    let module Process = Slc_device.Process in
    let vdd_lo, vdd_hi = tech0.Tech.vdd_range in
    let rows =
      List.map
        (fun (label, corner, celsius, vdd) ->
          let t = Tech.at_temperature tech0 ~celsius in
          let seed = Process.corner t corner in
          let m =
            Harness.simulate ~seed t arc
              { Harness.sin = 5e-12; cload = 2e-15; vdd }
          in
          [
            label;
            Printf.sprintf "%.0fC" celsius;
            Printf.sprintf "%.2fV" vdd;
            Printf.sprintf "%.2fps" (m.Harness.td *. 1e12);
            Printf.sprintf "%.2fps" (m.Harness.sout *. 1e12);
            Printf.sprintf "%.3ffJ" (m.Harness.energy *. 1e15);
          ])
        [
          ("SS (worst)", Process.Ss, 125.0, vdd_lo);
          ("TT (typ)", Process.Tt, 25.0, 0.5 *. (vdd_lo +. vdd_hi));
          ("FF (best)", Process.Ff, -40.0, vdd_hi);
          ("SF", Process.Sf, 25.0, 0.5 *. (vdd_lo +. vdd_hi));
          ("FS", Process.Fs, 25.0, 0.5 *. (vdd_lo +. vdd_hi));
        ]
    in
    Format.fprintf std "PVT corners for %s in %s:@." (Arc.name arc)
      tech0.Tech.name;
    Report.table std
      ~header:[ "corner"; "temp"; "vdd"; "delay"; "slew"; "energy" ]
      rows
  in
  Cmd.v (Cmd.info "corners" ~doc:"PVT corner table for one cell")
    Term.(const run $ tech_arg "n14" $ cell_arg)

let liberty_cmd =
  let out_arg =
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~doc:"Output file.")
  in
  let run tech out store_dir =
    let tech = tech_of_name tech in
    with_timer (fun () ->
        let levels = [| 3; 3; 2 |] in
        let lib =
          match store_of store_dir with
          | None -> Slc_cell.Library.characterize tech ~levels
          | Some st -> (
            let key =
              Store.library_key ~seed:None ~tech
                ~cells:(List.map (fun c -> c.Cells.name) Cells.all)
                ~levels
            in
            match Store.find_library st ~key with
            | Some lib ->
              Slc_obs.Telemetry.incr Slc_obs.Telemetry.store_hits;
              Format.fprintf std "store: library served with zero simulations@.";
              lib
            | None ->
              Slc_obs.Telemetry.incr Slc_obs.Telemetry.store_misses;
              let lib = Slc_cell.Library.characterize tech ~levels in
              Store.put_library st ~key lib;
              lib)
        in
        let text =
          Slc_cell.Liberty.to_string ~vdd:tech.Tech.vdd_nom lib
        in
        if out = "-" then print_string text
        else begin
          Out_channel.with_open_text out (fun oc ->
              Out_channel.output_string oc text);
          Format.fprintf std "wrote %s (%d bytes)@." out (String.length text)
        end)
  in
  Cmd.v
    (Cmd.info "liberty" ~doc:"Characterize a full library and emit .lib text")
    Term.(const run $ tech_arg "n28" $ out_arg $ store_arg)

let sta_cmd =
  let netlist_arg =
    Arg.(required & opt (some string) None & info [ "n"; "netlist" ] ~doc:"Structural Verilog file.")
  in
  let clock_arg =
    Arg.(value & opt float 60e-12 & info [ "clock" ] ~doc:"Required time at the outputs, seconds.")
  in
  let k_arg = Arg.(value & opt int 3 & info [ "k" ] ~doc:"Fitting sims per arc.") in
  let prior_arg =
    Arg.(value & opt (some string) None & info [ "prior" ] ~doc:"Load the prior from FILE (else learn it).")
  in
  let run tech netlist clock k prior_path store_dir =
    let tech = tech_of_name tech in
    let store = store_of store_dir in
    let oracle () =
      let prior =
        match prior_path with
        | Some p -> load_prior p
        | None -> Store.prior_source store tech
      in
      Slc_ssta.Oracle.bayes_bank ?store ~prior tech ~k
    in
    with_timer (fun () ->
        match Slc_ssta.Verilog.sta tech ~oracle ~clock netlist with
        | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
        | Ok (module_name, rows) ->
          Format.fprintf std "%s: slack report at Tclk=%.2fps@." module_name
            (clock *. 1e12);
          Report.table std
            ~header:[ "net"; "arrival(ps)"; "required(ps)"; "slack(ps)" ]
            (List.map
               (fun r ->
                 [
                   r.Slc_ssta.Sdag.net_label;
                   Printf.sprintf "%.2f" (r.Slc_ssta.Sdag.arrival_time *. 1e12);
                   Printf.sprintf "%.2f" (r.Slc_ssta.Sdag.required_time *. 1e12);
                   Printf.sprintf "%+.2f" (r.Slc_ssta.Sdag.slack *. 1e12);
                 ])
               rows))
  in
  Cmd.v
    (Cmd.info "sta"
       ~doc:"Slack report for a structural-Verilog netlist (Bayes-characterized library)")
    Term.(
      const run $ tech_arg "n14" $ netlist_arg $ clock_arg $ k_arg $ prior_arg
      $ store_arg)

let population_cmd =
  let cell_arg =
    Arg.(value & opt string "INV" & info [ "c"; "cell" ] ~doc:"Cell name.")
  in
  let pin_arg =
    Arg.(value & opt string "A" & info [ "p"; "pin" ] ~doc:"Input pin.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 12
      & info [ "n"; "seeds" ] ~doc:"Number of Monte-Carlo process seeds.")
  in
  let k_arg =
    Arg.(
      value & opt int 3
      & info [ "k" ] ~doc:"Per-seed training budget (simulator runs).")
  in
  let method_arg =
    Arg.(
      value & opt string "bayes"
      & info [ "m"; "method" ] ~doc:"Extraction method: bayes, lse or lut.")
  in
  let batch_arg =
    Arg.(
      value & opt int 4
      & info [ "batch" ]
          ~doc:"Seeds per checkpoint batch (only meaningful with --store).")
  in
  let rng_arg =
    Arg.(
      value & opt int 42
      & info [ "rng-seed" ] ~doc:"Seed-batch generator seed.")
  in
  let design_arg =
    Arg.(
      value & opt string "curated"
      & info [ "design" ]
          ~doc:
            "Fitting-point design: curated (deterministic grid), random \
             (per-seed random draws) or adaptive (sequential \
             information-gain selection with GPR fallback).")
  in
  let design_rng_arg =
    Arg.(
      value & opt int 78
      & info [ "design-seed" ]
          ~doc:"Generator seed for the random/adaptive designs.")
  in
  let candidates_arg =
    Arg.(
      value & opt int 24
      & info [ "candidates" ]
          ~doc:"Adaptive design: candidate pool size per seed.")
  in
  let gpr_threshold_arg =
    Arg.(
      value
      & opt float Slc_core.Char_flow.default_gpr_threshold
      & info [ "gpr-threshold" ]
          ~doc:
            "Adaptive design: mean relative-residual threshold above which \
             a seed's analytical model is replaced by a GPR fallback.")
  in
  let run tech cell pin nseeds k meth batch rng_seed design design_seed
      candidates gpr_threshold store_dir =
    let tech = tech_of_name tech in
    let cell =
      match Cells.by_name cell with
      | c -> c
      | exception Not_found ->
        Printf.eprintf "unknown cell %S\n" cell;
        exit 2
    in
    let arc =
      match Arc.find cell ~pin ~out_dir:Arc.Fall with
      | a -> a
      | exception Not_found ->
        Printf.eprintf "no falling arc on pin %S\n" pin;
        exit 2
    in
    with_timer (fun () ->
        let store = store_of store_dir in
        let seeds =
          Slc_device.Process.sample_batch (Slc_prob.Rng.create rng_seed) tech
            nseeds
        in
        let method_ =
          match meth with
          | "bayes" -> Statistical.Bayes (Store.prior_source store tech)
          | "lse" -> Statistical.Lse
          | "lut" -> Statistical.Lut
          | m ->
            Printf.eprintf "unknown method %S (want bayes, lse or lut)\n" m;
            exit 2
        in
        let design =
          match design with
          | "curated" -> Statistical.Curated
          | "random" ->
            Statistical.Random_per_seed (Slc_prob.Rng.create design_seed)
          | "adaptive" ->
            Statistical.Adaptive
              {
                (Statistical.adaptive_defaults
                   (Slc_prob.Rng.create design_seed))
                with
                Statistical.a_candidates = candidates;
                a_gpr_threshold = gpr_threshold;
              }
          | d ->
            Printf.eprintf
              "unknown design %S (want curated, random or adaptive)\n" d;
            exit 2
        in
        let pop =
          match store with
          | None ->
            Statistical.extract_population_design ~design ~method_ ~tech ~arc
              ~seeds ~budget:k ()
          | Some st ->
            let pop, outcome =
              Store.extract_population ~batch_size:batch ~store:st ~method_
                ~design ~tech ~arc ~seeds ~budget:k ()
            in
            (match outcome with
            | Store.Hit ->
              Format.fprintf std
                "store: hit — population served with zero simulations@."
            | Store.Computed { resumed_seeds; computed_seeds; batches } ->
              Format.fprintf std
                "store: computed %d seed(s) in %d checkpoint batch(es), \
                 resumed %d from a checkpoint@."
                computed_seeds batches resumed_seeds);
            pop
        in
        let ok, degraded, failed =
          Array.fold_left
            (fun (ok, de, fa) -> function
              | Statistical.Seed_ok -> (ok + 1, de, fa)
              | Statistical.Seed_degraded _ -> (ok, de + 1, fa)
              | Statistical.Seed_failed _ -> (ok, de, fa + 1))
            (0, 0, 0) pop.Statistical.status
        in
        Format.fprintf std
          "%s in %s: %d seeds, method %s, train cost %d simulator runs@."
          (Arc.name arc) tech.Tech.name nseeds
          (Statistical.method_label method_)
          pop.Statistical.train_cost;
        Format.fprintf std "seed status: %d ok, %d degraded, %d failed@." ok
          degraded failed;
        let s_lo, s_hi = tech.Tech.sin_range in
        let c_lo, c_hi = tech.Tech.cload_range in
        let point =
          {
            Harness.sin = 0.5 *. (s_lo +. s_hi);
            cload = 0.5 *. (c_lo +. c_hi);
            vdd = tech.Tech.vdd_nom;
          }
        in
        let samples = Statistical.predict_samples pop point ~td:true in
        let n = float_of_int (Array.length samples) in
        if n > 0.0 then begin
          let mu = Array.fold_left ( +. ) 0.0 samples /. n in
          let var =
            Array.fold_left (fun a x -> a +. ((x -. mu) ** 2.0)) 0.0 samples
            /. n
          in
          Format.fprintf std
            "predicted Td at (Sin=%.1fps, Cload=%.1ffF, Vdd=%.2fV): mu %.2f \
             ps, sigma %.3f ps@."
            (point.Harness.sin *. 1e12)
            (point.Harness.cload *. 1e15)
            point.Harness.vdd (mu *. 1e12)
            (sqrt var *. 1e12)
        end)
  in
  Cmd.v
    (Cmd.info "population"
       ~doc:
         "Per-seed statistical parameter extraction, with checkpoint/resume \
          and zero-simulation replay when --store is given")
    Term.(
      const run $ tech_arg "n28" $ cell_arg $ pin_arg $ seeds_arg $ k_arg
      $ method_arg $ batch_arg $ rng_arg $ design_arg $ design_rng_arg
      $ candidates_arg $ gpr_threshold_arg $ store_arg)

let listen_arg =
  let doc =
    "Endpoint to listen on (or connect to): unix:PATH, tcp:HOST:PORT, a \
     bare path containing '/', or HOST:PORT.  tcp port 0 binds an \
     ephemeral port and prints the real one."
  in
  Arg.(
    value
    & opt string "unix:/tmp/slc-serve.sock"
    & info [ "l"; "listen" ] ~doc ~docv:"ENDPOINT")

let endpoint_of_string_or_exit s =
  match Slc_server.Server.endpoint_of_string s with
  | Ok ep -> ep
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

let serve_cmd =
  let run listen store_dir =
    let ep = endpoint_of_string_or_exit listen in
    let engine = Slc_server.Engine.create ?store:(store_of store_dir) () in
    let srv = Slc_server.Server.start engine ep in
    Format.fprintf std "slc serve: listening on %s@."
      (Slc_server.Server.endpoint_to_string (Slc_server.Server.endpoint srv));
    (* SIGINT/SIGTERM drain like a [shutdown] request: finish in-flight
       replies, then exit. *)
    let on_signal _ = Slc_server.Server.request_stop srv in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
     with Invalid_argument _ | Sys_error _ -> ());
    Slc_server.Server.wait srv;
    Format.fprintf std "slc serve: stopped@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived characterization server: keeps the domain pool, \
          trained banks, query caches and store resident, and answers \
          delay/slew/pdf/sta requests over a newline-delimited socket \
          protocol (see docs/server.md)")
    Term.(const run $ listen_arg $ store_arg)

let query_cmd =
  let connect_arg =
    let doc =
      "Send the requests to a running server at ENDPOINT instead of \
       answering them in-process."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~doc ~docv:"ENDPOINT")
  in
  let client ep =
    let domain, addr =
      match ep with
      | Slc_server.Server.Unix_socket path ->
        (Unix.PF_UNIX, Unix.ADDR_UNIX path)
      | Slc_server.Server.Tcp (host, port) ->
        let inet =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found ->
              Printf.eprintf "cannot resolve host %S\n" host;
              exit 2)
        in
        (Unix.PF_INET, Unix.ADDR_INET (inet, port))
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (match Unix.connect fd addr with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "connect %s: %s\n"
        (Slc_server.Server.endpoint_to_string ep)
        (Unix.error_message e);
      exit 2);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let rec loop () =
      match In_channel.input_line stdin with
      | None -> ()
      | Some line ->
        output_string oc line;
        output_char oc '\n';
        flush oc;
        (match input_line ic with
        | exception End_of_file -> ()
        | reply ->
          print_endline reply;
          loop ())
    in
    loop ();
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let run connect store_dir =
    match connect with
    | Some ep -> client (endpoint_of_string_or_exit ep)
    | None ->
      (* One-shot local mode: the exact connection loop the daemon
         runs, over stdin/stdout — so a served response is bitwise
         identical to this output by construction. *)
      let engine = Slc_server.Engine.create ?store:(store_of store_dir) () in
      Slc_server.Server.serve_channels engine stdin stdout
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Answer server-protocol requests from stdin: in-process by \
          default, or against a running server with --connect")
    Term.(const run $ connect_arg $ store_arg)

let all_cmd =
  let run config priors =
    Format.fprintf std
      "Regenerating all paper tables/figures at scale %.2f (--scale or \
       SLC_SCALE to change)@."
      config.Config.scale;
    List.iter
      (fun (title, section, body) ->
        Format.fprintf std "@.%s@.%s@." title
          (String.make (String.length title) '=');
        timed ~section body)
      [
        ("Table I", "table1", table1);
        ("Fig 2", "fig2", fig2 Tech.n14);
        ("Fig 3", "fig3", fig3 Tech.n14);
        ("Fig 5", "fig5", fig5 Tech.n28);
        ("Fig 6", "fig6", fig6 config priors Tech.n14);
        ("Figs 7/8", "fig78", fig78 config priors Tech.n28);
        ("Fig 9", "fig9", fig9 config priors Tech.n28);
        ( "Extension: adaptive simulation budgets", "adaptive-budget",
          adaptive_budget config priors );
        ("Ablations", "ablations", ablations config priors);
        ("Extension: multi-Vt transfer", "vt-transfer", vt_transfer config);
        ( "Extension: sequential (DFF) setup characterization", "dff-setup",
          dff_setup );
        ("Extension: ring-oscillator cross-check", "ring", ring);
        ("Extension: SSTA consumer validation", "ssta", ssta_check priors);
      ];
    telemetry_report ()
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "Regenerate every table and figure of the paper, the ablations \
          and the extensions, one timed section each")
    Term.(const run $ config_term $ priors_term)

let main =
  Cmd.group
    (Cmd.info "slc-cli" ~version:"1.0.0"
       ~doc:
         "Statistical library characterization using belief propagation \
          across technology nodes (DATE 2015 reproduction)")
    [
      table1_cmd; fig2_cmd; fig3_cmd; fig5_cmd; fig6_cmd; fig78_cmd; fig9_cmd;
      ablations_cmd; characterize_cmd; corners_cmd; liberty_cmd; prior_cmd;
      population_cmd; sta_cmd; serve_cmd; query_cmd; all_cmd;
    ]

let () = exit (Cmd.eval main)
