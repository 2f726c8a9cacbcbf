(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks: one Test.make per paper
   table/figure, timing the computational kernel that experiment
   stresses (transient simulation, LSE/MAP extraction, LUT build and
   lookup, per-seed extraction, KDE), plus ablation kernels.

   Part 2 — regeneration: re-runs every table and figure of the paper
   at the configured scale (SLC_SCALE, default 1.0) and prints the
   same rows/series the paper reports, including the iso-accuracy
   speedup factors. *)

open Bechamel
open Slc_core
module Tech = Slc_device.Tech
module Cells = Slc_cell.Cells
module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness
module Equivalent = Slc_cell.Equivalent
module Process = Slc_device.Process

let std = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Shared fixtures, prepared once so the benchmark loops measure the
   kernels and not the setup. *)

let tech14 = Tech.n14

let tech28 = Tech.n28

let nor2_fall = Arc.find Cells.nor2 ~pin:"A" ~out_dir:Arc.Fall

let inv_fall = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall

let mid_point = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 }

let tiny_prior =
  lazy
    (Prior.learn_pair ~cells:[ Cells.inv ] ~grid_levels:[| 2; 2; 2 |]
       ~historical:[ Tech.n20; Tech.n45 ] ())

let dense_obs =
  lazy
    (let points = Input_space.fitting_points tech14 ~k:48 in
     let eq = Equivalent.of_arc tech14 nor2_fall in
     Array.map
       (fun (p : Harness.point) ->
         let m = Harness.simulate tech14 nor2_fall p in
         {
           Extract_lse.point = p;
           ieff = Equivalent.ieff eq ~vdd:p.Harness.vdd;
           value = m.Harness.td;
         })
       points)

let small_obs = lazy (Array.sub (Lazy.force dense_obs) 0 2)

let lut_table = lazy (Slc_cell.Nldm.build tech14 nor2_fall ~levels:[| 3; 3; 2 |])

let kde_fixture =
  lazy
    (let rng = Slc_prob.Rng.create 5 in
     let xs =
       Array.init 200 (fun _ ->
           Slc_prob.Dist.gaussian rng ~mu:2e-11 ~sigma:2e-12)
     in
     Slc_prob.Kde.fit xs)

let seed_fixture =
  lazy
    (let rng = Slc_prob.Rng.create 11 in
     Process.sample rng tech28 0)

(* Persistent-store fixtures: a tiny LSE population (2 seeds x 2 points)
   against a throwaway store.  The cold kernel deletes the final
   artifact each run, so every iteration pays simulate + fit +
   serialize + atomic write; the warm kernel measures the pure hit
   path (read + parse + predictor rebuild, zero simulations). *)
module Store = Slc_store.Store

let store_seeds =
  lazy (Process.sample_batch (Slc_prob.Rng.create 17) tech14 2)

let store_fixture =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "slc-bench-store-%d" (Unix.getpid ()))
     in
     let st = Store.open_ dir in
     let seeds = Lazy.force store_seeds in
     let key =
       Store.population_key ~method_:Statistical.Lse
         ~design:Statistical.Curated ~tech:tech14 ~arc:inv_fall ~seeds
         ~budget:2 ~min_points:2
     in
     (* Prime the final artifact so the warm kernel always hits. *)
     ignore
       (Store.extract_population ~store:st ~method_:Statistical.Lse
          ~design:Statistical.Curated ~tech:tech14 ~arc:inv_fall ~seeds
          ~budget:2 ());
     (st, seeds, Store.artifact_path st `Population key))

let store_extract st seeds =
  Store.extract_population ~store:st ~method_:Statistical.Lse
    ~design:Statistical.Curated ~tech:tech14 ~arc:inv_fall ~seeds ~budget:2 ()

let bench_store_cold =
  Test.make ~name:"store/population-cold"
    (Staged.stage (fun () ->
         let st, seeds, final = Lazy.force store_fixture in
         (try Sys.remove final with Sys_error _ -> ());
         store_extract st seeds))

let bench_store_warm =
  Test.make ~name:"store/population-warm"
    (Staged.stage (fun () ->
         let st, seeds, _ = Lazy.force store_fixture in
         store_extract st seeds))

(* ------------------------------------------------------------------ *)
(* Characterization-server kernel: one request through the whole serve
   answer path — wire parse, dispatch on the resident engine (memo
   lookups included), response format — against an injected
   constant-time bank.  What this measures is the per-query overhead a
   warm daemon adds on top of the oracle itself; the real
   characterization cost is covered by the fig/table kernels above. *)

let serve_bank _tech ~k =
  {
    Slc_ssta.Oracle.label = "bench-serve";
    query =
      (fun arc (pt : Harness.point) ->
        let base = float_of_int (String.length (Arc.name arc) + k) in
        ( (base *. 1e-12) +. (0.5 *. pt.Harness.sin)
          +. (pt.Harness.cload /. 1e-3),
          (base *. 2e-12) +. (0.25 *. pt.Harness.sin) ));
  }

let serve_request_line = "delay n14 INV A fall 3 5e-12 2e-15 0.8"

let serve_fixture =
  lazy
    (let engine = Slc_server.Engine.create ~bank:serve_bank () in
     (* Warm the per-(tech, k) bank memo so the kernel times the
        steady-state path, not the first-miss build. *)
     (match Slc_server.Protocol.parse_request serve_request_line with
     | Ok req -> ignore (Slc_server.Engine.exec engine req)
     | Error e ->
       Printf.eprintf "bench: serve fixture request rejected: %s\n" e;
       exit 2);
     engine)

let bench_serve =
  Test.make ~name:"serve/queries-per-sec"
    (Staged.stage (fun () ->
         let engine = Lazy.force serve_fixture in
         match Slc_server.Protocol.parse_request serve_request_line with
         | Ok req ->
           Slc_server.Protocol.format_response (Slc_server.Engine.exec engine req)
         | Error e -> e))

(* --serve-saturation: an end-to-end socket throughput check — an
   in-process daemon on a Unix socket, N client threads each streaming
   M requests and verifying every reply.  Exits non-zero if any reply
   is wrong, so CI can use --quick as a smoke gate. *)
let serve_saturation ~quick () =
  let engine = Slc_server.Engine.create ~bank:serve_bank () in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "slc-bench-serve-%d.sock" (Unix.getpid ()))
  in
  let srv = Slc_server.Server.start engine (Slc_server.Server.Unix_socket path) in
  let clients = if quick then 4 else 8 in
  let requests = if quick then 50 else 2000 in
  let errors = Atomic.make 0 in
  let client () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (try
       for _ = 1 to requests do
         output_string oc (serve_request_line ^ "\n");
         flush oc;
         let reply = input_line ic in
         if
           String.length reply < 9
           || not (String.equal (String.sub reply 0 9) "ok delay ")
         then Atomic.incr errors
       done
     with End_of_file | Sys_error _ -> Atomic.incr errors);
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  let secs = Unix.gettimeofday () -. t0 in
  Slc_server.Server.stop srv;
  let total = clients * requests in
  Printf.printf
    "serve saturation: %d clients x %d requests = %d queries in %.3f s \
     (%.0f queries/s), %d bad replies\n"
    clients requests total secs
    (float_of_int total /. secs)
    (Atomic.get errors);
  exit (if Atomic.get errors > 0 then 1 else 0)

(* ------------------------------------------------------------------ *)
(* One benchmark per table/figure. *)

let bench_table1 =
  (* Table I kernel: dense LSE extraction of the 4 parameters. *)
  Test.make ~name:"table1/lse-extraction-48pts"
    (Staged.stage (fun () -> Extract_lse.fit (Lazy.force dense_obs)))

let bench_fig2 =
  (* Fig 2 kernel: one full transient simulation of the NOR2 arc. *)
  Test.make ~name:"fig2/transient-simulation"
    (Staged.stage (fun () -> Harness.simulate tech14 nor2_fall mid_point))

let bench_fig3 =
  (* Fig 3 kernel: Ieff evaluation of the equivalent inverter. *)
  Test.make ~name:"fig3/equivalent-ieff"
    (Staged.stage (fun () ->
         let eq = Equivalent.of_arc tech14 nor2_fall in
         Equivalent.ieff eq ~vdd:0.8))

let bench_fig5 =
  Test.make ~name:"fig5/validation-set-1000"
    (Staged.stage (fun () -> Input_space.validation_set ~n:1000 ~seed:1 tech14))

let bench_fig6_map =
  (* Fig 6 kernel: MAP extraction from k = 2 observations. *)
  Test.make ~name:"fig6/map-fit-k2"
    (Staged.stage (fun () ->
         Map_fit.fit_params
           ~prior:(Lazy.force tiny_prior).Prior.delay
           ~tech:tech14 (Lazy.force small_obs)))

let bench_fig6_lut =
  Test.make ~name:"fig6/lut-lookup"
    (Staged.stage (fun () ->
         Slc_cell.Nldm.lookup_td (Lazy.force lut_table) mid_point))

let bench_fig78 =
  (* Fig 7/8 kernel: per-seed simulate-and-extract at k = 2. *)
  Test.make ~name:"fig78/per-seed-extraction"
    (Staged.stage (fun () ->
         Char_flow.train_bayes
           ~seed:(Lazy.force seed_fixture)
           ~prior:(Lazy.force tiny_prior) tech28 inv_fall ~k:2))

let batch_seeds_fixture =
  lazy (Process.sample_batch (Slc_prob.Rng.create 11) tech28 4)

let bench_fig78_batch =
  (* Fig 7/8 population variant: a 4-seed extraction whose
     (seed x point) simulation grid is scheduled as one
     Harness.simulate_batch call over the domain pool. *)
  Test.make ~name:"fig78/per-seed-extraction-batch"
    (Staged.stage (fun () ->
         Statistical.extract_population ~method_:Statistical.Lse ~tech:tech28
           ~arc:inv_fall
           ~seeds:(Lazy.force batch_seeds_fixture)
           ~budget:2 ()))

let bench_fig78_adaptive =
  (* Adaptive-design variant: information-gain point selection drives
     the same 4-seed population in rounds, one simulate_batch per round.
     Overhead vs fig78/per-seed-extraction-batch is the acquisition
     cost (refits + candidate scoring) on top of the simulations. *)
  Test.make ~name:"fig78/adaptive-budget"
    (Staged.stage (fun () ->
         Statistical.extract_population_design
           ~design:
             (Statistical.Adaptive
                (Statistical.adaptive_defaults (Slc_prob.Rng.create 7)))
           ~method_:(Statistical.Bayes (Lazy.force tiny_prior))
           ~tech:tech28 ~arc:inv_fall
           ~seeds:(Lazy.force batch_seeds_fixture)
           ~budget:2 ()))

let bench_fig9 =
  Test.make ~name:"fig9/kde-evaluate-80"
    (Staged.stage (fun () ->
         let k = Lazy.force kde_fixture in
         Slc_prob.Kde.evaluate k (Slc_prob.Kde.grid k 80)))

let bench_ablation_beta =
  Test.make ~name:"ablation/beta-lookup"
    (Staged.stage (fun () ->
         Prior.beta_at (Lazy.force tiny_prior).Prior.delay tech14 mid_point))

let ssta_chain =
  lazy
    (Slc_cell.Chain.make tech14
       [
         Slc_cell.Chain.stage Cells.inv "A";
         Slc_cell.Chain.stage Cells.nand2 "A";
         Slc_cell.Chain.stage Cells.nor2 "B";
       ])

let bench_ssta =
  (* SSTA kernel: propagate a 3-stage path through the compact models. *)
  Test.make ~name:"ssta/path-propagation"
    (Staged.stage (fun () ->
         let oracle =
           Slc_ssta.Oracle.bayes_bank ~prior:(Lazy.force tiny_prior) tech14
             ~k:2
         in
         Slc_ssta.Path.propagate oracle (Lazy.force ssta_chain) ~sin:5e-12
           ~vdd:0.8 ~in_rises:true))

let bench_ablation_chain =
  Test.make ~name:"ablation/belief-chain"
    (Staged.stage (fun () ->
         Belief.chain_prior (Lazy.force tiny_prior).Prior.delay
           ~ordered:[ "n45"; "n20" ]))

(* ------------------------------------------------------------------ *)
(* Large-design SSTA: deterministic generated netlists over the paper's
   INV/NAND2/NOR2 set, timed against an NLDM library oracle so queries
   cost an interpolation, not a simulation — the regime where the
   compiled graph engine itself is what's being measured. *)

let ssta_library_oracle =
  lazy
    (Slc_ssta.Oracle.of_library
       (Slc_cell.Library.characterize
          ~cells:[ Cells.inv; Cells.nand2; Cells.nor2 ]
          tech14 ~levels:[| 2; 2; 2 |]))

let design_10k =
  lazy (Slc_ssta.Generate.design tech14 ~vdd:0.8 ~seed:7 ~gates:10_000)

let design_100k =
  lazy (Slc_ssta.Generate.design tech14 ~vdd:0.8 ~seed:7 ~gates:100_000)

let design_inputs _ = Slc_ssta.Generate.both_edges ~at:0.0 ~slew:5e-12

let slack_pass ?cache ?domains d =
  let open Slc_ssta in
  Sdag.slack_report_compiled ?cache ?domains d.Generate.compiled
    (Lazy.force ssta_library_oracle) ~input_arrivals:design_inputs
    ~outputs:(Generate.required d 1e-9)

(* Warm persistent caches, primed by one full pass each. *)
let warm_cache_10k =
  lazy
    (let c = Slc_ssta.Oracle.make_cache () in
     ignore (slack_pass ~cache:c (Lazy.force design_10k));
     c)

let warm_cache_100k =
  lazy
    (let c = Slc_ssta.Oracle.make_cache () in
     ignore (slack_pass ~cache:c (Lazy.force design_100k));
     c)

let bench_ssta_10k =
  (* Levelized forward + backward + report, warm oracle cache, domain
     pool at its default width (SLC_DOMAINS governs). *)
  Test.make ~name:"ssta/large-design-10k"
    (Staged.stage (fun () ->
         slack_pass ~cache:(Lazy.force warm_cache_10k) (Lazy.force design_10k)))

let bench_ssta_10k_seq =
  (* The sequential reference for the same pass: the parallel speedup
     is 10k / 10k-seq on a multi-core host (bitwise-identical rows). *)
  Test.make ~name:"ssta/large-design-10k-seq"
    (Staged.stage (fun () ->
         Slc_num.Parallel.sequential (fun () ->
             slack_pass
               ~cache:(Lazy.force warm_cache_10k)
               (Lazy.force design_10k))))

let bench_ssta_10k_cold =
  (* Cold oracle: a fresh exact cache per pass, so every distinct
     (arc, slew, load) pays one NLDM interpolation. *)
  Test.make ~name:"ssta/large-design-10k-cold"
    (Staged.stage (fun () ->
         slack_pass
           ~cache:(Slc_ssta.Oracle.make_cache ())
           (Lazy.force design_10k)))

let bench_ssta_100k =
  Test.make ~name:"ssta/large-design-100k"
    (Staged.stage (fun () ->
         slack_pass
           ~cache:(Lazy.force warm_cache_100k)
           (Lazy.force design_100k)))

let belief_graph_fixture =
  (* A diamond over synthetic per-node populations: the smallest shape
     where residual scheduling and multi-parent combination both run. *)
  lazy
    (let rows shift n =
       Array.init n (fun i ->
           Timing_model.to_vec
             {
               Timing_model.kd = 0.3 +. shift +. (0.002 *. float_of_int i);
               cpar = 1.0 +. (0.01 *. float_of_int i);
               v_off = -0.2 +. (0.5 *. shift);
               alpha = 0.1;
             })
     in
     Belief.graph_make
       ~nodes:
         [
           ("root", rows 0.00 6); ("left", rows 0.02 5);
           ("right", rows 0.04 5); ("sink", rows 0.03 6);
         ]
       ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
       ())

let bench_belief_graph =
  Test.make ~name:"core/belief-graph"
    (Staged.stage (fun () ->
         Belief.propagate (Lazy.force belief_graph_fixture)))

let light_benches =
  Test.make_grouped ~name:"slc"
    [
      bench_table1; bench_fig2; bench_fig3; bench_fig5;
      bench_fig6_map; bench_fig6_lut; bench_fig78; bench_fig78_batch;
      bench_fig78_adaptive; bench_fig9; bench_ablation_beta;
      bench_ablation_chain; bench_belief_graph; bench_ssta;
      bench_store_cold; bench_store_warm; bench_serve;
    ]

(* Measured in a second batch, AFTER every light kernel: their fixtures
   (10k/100k-gate designs plus warm oracle caches holding one entry per
   distinct load) keep tens of MB live for the rest of the process, and
   a big live major heap taxes every allocating kernel measured while
   it exists — the GC's steady-state slice work scales with heap size,
   which was observed to inflate sub-ms kernels by orders of magnitude
   when the fixtures were primed up front. *)
let large_benches =
  Test.make_grouped ~name:"slc"
    [ bench_ssta_10k; bench_ssta_10k_seq; bench_ssta_10k_cold;
      bench_ssta_100k ]

(* The large-design fixtures are expensive to force (library
   characterization, 10k/100k-gate generation, cache priming); doing it
   lazily inside a measured closure would charge the whole setup to the
   first iteration and wreck short-quota estimates, so force them
   between the two batches. *)
let prime_ssta_fixtures () =
  ignore (Lazy.force ssta_library_oracle);
  ignore (Lazy.force warm_cache_10k);
  ignore (Lazy.force warm_cache_100k)

let run_benchmarks ~quick () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    (* --quick is a CI smoke setting: just enough iterations to prove
       every kernel runs and produce a JSON artifact, not a stable
       measurement. *)
    if quick then
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.02) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let measure tests =
    let raw = Benchmark.all cfg instances tests in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let light = measure light_benches in
  prime_ssta_fixtures ();
  let large = measure large_benches in
  Format.fprintf std "== Micro-benchmarks (one per table/figure) ==@.";
  Format.fprintf std "%-34s %14s@." "kernel" "time per run";
  let rows = ref [] in
  Hashtbl.iter (fun name v -> rows := (name, v) :: !rows) light;
  Hashtbl.iter (fun name v -> rows := (name, v) :: !rows) large;
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) !rows in
  let estimates =
    List.map
      (fun (name, v) ->
        match Analyze.OLS.estimates v with
        | Some [ ns ] -> (name, Some ns)
        | _ -> (name, None))
      rows
  in
  List.iter
    (fun (name, est) ->
      match est with
      | Some ns ->
        let pretty =
          if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
          else Printf.sprintf "%8.0f ns" ns
        in
        Format.fprintf std "%-34s %14s@." name pretty
      | None -> Format.fprintf std "%-34s %14s@." name "n/a")
    estimates;
  Format.fprintf std "@.";
  estimates

(* ------------------------------------------------------------------ *)
(* Figure/table regeneration. *)

let section title =
  Format.fprintf std "@.%s@.%s@." title (String.make (String.length title) '=')

(* Per-section regeneration stats, collected for the machine-readable
   trajectory (--json). *)
let regen_stats : (string * int * float) list ref = ref []

let regenerate () =
  let config = Config.default () in
  Format.fprintf std
    "Regenerating all paper tables/figures at scale %.2f (SLC_SCALE to change)@."
    config.Config.scale;
  let timed name f =
    let t0 = Unix.gettimeofday () in
    Harness.reset_sim_count ();
    f ();
    let sims = Harness.sim_count () in
    let secs = Unix.gettimeofday () -. t0 in
    regen_stats := (name, sims, secs) :: !regen_stats;
    Format.fprintf std "[%s: %d simulator runs, %.1f s]@." name sims secs
  in
  section "Table I";
  timed "table1" (fun () -> Exp_model.print_table1 std (Exp_model.table1 ()));
  section "Fig 2";
  timed "fig2" (fun () ->
      Exp_model.print_invariance std
        ~title:"T*Ieff/(Vdd+V') vs Vdd (NOR2, n14)" (Exp_model.fig2 ()));
  section "Fig 3";
  timed "fig3" (fun () ->
      Exp_model.print_invariance std
        ~title:"Td/(Cload+Cpar+a*Sin) vs (Cload,Sin) (NOR2, n14)"
        (Exp_model.fig3 ()));
  section "Fig 5";
  Exp_nominal.print_fig5 std (Exp_nominal.fig5 Tech.n28);
  section "Fig 6";
  timed "fig6" (fun () ->
      Exp_nominal.print_fig6 std (Exp_nominal.fig6 ~config ()));
  section "Figs 7/8";
  timed "fig78" (fun () ->
      Exp_statistical.print_fig78 std (Exp_statistical.fig78 ~config ()));
  section "Fig 9";
  timed "fig9" (fun () ->
      Exp_statistical.print_fig9 std (Exp_statistical.fig9 ~config ()));
  section "Extension: adaptive simulation budgets";
  timed "adaptive-budget" (fun () ->
      (* Force the telemetry [simulations] counter on for this section:
         the headline claim is a simulator-run count, and printing it
         from the counter keeps the accounting shared with [slc stats]
         rather than a bench-private tally. *)
      let was_on = Slc_obs.Telemetry.on () in
      Slc_obs.Telemetry.enable ();
      let sims0 = Slc_obs.Telemetry.read Slc_obs.Telemetry.simulations in
      let r = Exp_statistical.adaptive_budget ~config () in
      Exp_statistical.print_adaptive_budget std r;
      Format.fprintf std "[telemetry simulations counter: %d]@."
        (Slc_obs.Telemetry.read Slc_obs.Telemetry.simulations - sims0);
      if not was_on then Slc_obs.Telemetry.disable ());
  section "Ablations";
  timed "ablations" (fun () ->
      Exp_ablation.print_rows std ~title:"learned vs constant beta(xi)"
        (Exp_ablation.ablation_beta ~config ());
      Exp_ablation.print_rows std ~title:"historical-library selection"
        (Exp_ablation.ablation_history ~config ());
      Exp_ablation.print_rows std ~title:"pooled vs belief-chain prior"
        (Exp_ablation.ablation_chain ~config ());
      Exp_ablation.print_rows std ~title:"curated vs random fitting design"
        (Exp_ablation.ablation_design ~config ());
      Exp_ablation.print_complexity std
        (Exp_ablation.ablation_model_complexity ());
      Exp_ablation.print_sampling std (Exp_ablation.ablation_sampling ()));
  section "Extension: multi-Vt transfer";
  timed "vt-transfer" (fun () ->
      Exp_extension.print_result std (Exp_extension.vt_transfer ~config ()));
  section "Extension: sequential (DFF) setup characterization";
  timed "dff-setup" (fun () ->
      let module Seq = Slc_cell.Seq in
      List.iter
        (fun vdd ->
          let rise = Seq.setup_time ~resolution:2e-13 tech14 ~vdd ~data_rises:true in
          let fall = Seq.setup_time ~resolution:2e-13 tech14 ~vdd ~data_rises:false in
          let hold = Seq.hold_time ~resolution:2e-13 tech14 ~vdd ~data_rises:true in
          Format.fprintf std
            "vdd=%.2fV: setup(rise)=%.2fps  setup(fall)=%.2fps  hold(rise)=%.2fps@."
            vdd (rise *. 1e12) (fall *. 1e12) (hold *. 1e12))
        [ 0.8; 0.7 ]);
  section "Extension: ring-oscillator cross-check";
  timed "ring" (fun () ->
      let module Ring = Slc_cell.Ring in
      List.iter
        (fun vdd ->
          let r = Ring.simulate ~stages:5 tech14 ~vdd in
          Format.fprintf std
            "vdd=%.2fV: f=%.2f GHz, stage delay %.2f ps (%d cycles)@." vdd
            (r.Ring.frequency /. 1e9)
            (r.Ring.stage_delay *. 1e12)
            r.Ring.cycles_measured)
        [ 0.8; 0.7 ]);
  section "Extension: SSTA consumer validation";
  timed "ssta" (fun () ->
      let chain =
        Slc_cell.Chain.make tech14
          [
            Slc_cell.Chain.stage Cells.inv "A";
            Slc_cell.Chain.stage ~wire_cap:1e-15 Cells.nand2 "A";
            Slc_cell.Chain.stage Cells.nor2 "B";
            Slc_cell.Chain.stage Cells.inv "A";
            Slc_cell.Chain.stage Cells.aoi21 "A";
          ]
      in
      let truth =
        Slc_cell.Chain.simulate chain ~sin:5e-12 ~vdd:0.8 ~in_rises:true
      in
      let prior = Prior.learn_pair ~historical:(Tech.historical_for tech14) () in
      let oracle = Slc_ssta.Oracle.bayes_bank ~prior tech14 ~k:3 in
      let t =
        Slc_ssta.Path.propagate oracle chain ~sin:5e-12 ~vdd:0.8 ~in_rises:true
      in
      Format.fprintf std
        "5-stage path: transistor-level %.2f ps, model-based %.2f ps (%+.1f%%)@."
        (truth.Slc_cell.Chain.total_delay *. 1e12)
        (t.Slc_ssta.Path.total_delay *. 1e12)
        (100.0
        *. (t.Slc_ssta.Path.total_delay -. truth.Slc_cell.Chain.total_delay)
        /. truth.Slc_cell.Chain.total_delay))

(* ------------------------------------------------------------------ *)
(* Machine-readable bench trajectory: --json <path> dumps the per-kernel
   ns/run estimates and the regeneration simulator-run counts, so
   successive PRs have comparable perf records (BENCH_PR<n>.json). *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path ~kernels ~regen =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"unix_time\": %.0f,\n" (Unix.time ()));
  Buffer.add_string b "  \"kernels\": {\n";
  let n_k = List.length kernels in
  List.iteri
    (fun i (name, est) ->
      let value =
        match est with
        | Some ns -> Printf.sprintf "%.6g" ns
        | None -> "null"
      in
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": { \"ns_per_run\": %s }%s\n"
           (json_escape name) value
           (if i = n_k - 1 then "" else ",")))
    kernels;
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"regen\": {\n";
  let n_r = List.length regen in
  List.iteri
    (fun i (name, sims, secs) ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": { \"sims\": %d, \"seconds\": %.3f }%s\n"
           (json_escape name) sims secs
           (if i = n_r - 1 then "" else ",")))
    regen;
  Buffer.add_string b "  }\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.fprintf std "Wrote bench trajectory to %s@." path

(* ------------------------------------------------------------------ *)
(* --compare A.json B.json: per-kernel speedup of B relative to A.

   The parser reads only the format [write_json] emits — one
   ["name": { "ns_per_run": N }] line per kernel inside the FIRST
   top-level "kernels" object (embedded baseline sections further down
   the file are ignored).  Exits non-zero if any kernel regressed by
   more than 10%, or if a baseline kernel disappeared and --allow-gone
   was not passed (a silently vanishing kernel usually means a rename
   broke the trajectory, not a deliberate removal). *)

let parse_section path ~header parse_line =
  let ic =
    try open_in path
    with Sys_error msg ->
      prerr_endline ("bench: --compare: " ^ msg);
      exit 2
  in
  let rows = ref [] in
  let in_sec = ref false in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if !in_sec then
         if line = "}" || line = "}," then raise Exit
         else
           match parse_line line with
           | Some row -> rows := row :: !rows
           | None -> ()
       else if line = header then in_sec := true
     done
   with Exit | End_of_file -> ());
  close_in ic;
  (!in_sec, List.rev !rows)

(* [(name, Some ns)] per measured kernel; [None] for a kernel whose
   estimate was recorded as [null] (e.g. a --quick run that failed to
   produce an OLS fit). *)
let parse_kernels path =
  let parse_line line =
    try
      Scanf.sscanf line " %S : { %S : %f" (fun name field v ->
          if field = "ns_per_run" then Some (name, Some v) else None)
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
      try
        Scanf.sscanf line " %S : { %S : null" (fun name field ->
            if field = "ns_per_run" then Some (name, None) else None)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  in
  let found, rows = parse_section path ~header:"\"kernels\": {" parse_line in
  if not found then begin
    Printf.eprintf "bench: --compare: no \"kernels\" section in %s\n" path;
    exit 2
  end;
  rows

(* [(section, sims)] per regeneration section; files written before the
   regen block existed just yield [] (no gate). *)
let parse_regen path =
  let parse_line line =
    try
      Scanf.sscanf line " %S : { %S : %d" (fun name field v ->
          if field = "sims" then Some (name, v) else None)
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  snd (parse_section path ~header:"\"regen\": {" parse_line)

let usable = function Some ns -> Float.is_finite ns && ns > 0.0 | None -> false

let compare_trajectories ~allow_gone base_path new_path =
  let base = parse_kernels base_path in
  let fresh = parse_kernels new_path in
  let regressions = ref [] in
  let gone = ref [] in
  Printf.printf "== Kernel comparison: %s -> %s ==\n" base_path new_path;
  Printf.printf "%-36s %12s %12s %9s\n" "kernel" "base ns" "new ns" "speedup";
  let pretty = function
    | Some ns when Float.is_finite ns -> Printf.sprintf "%12.4g" ns
    | Some _ | None -> Printf.sprintf "%12s" "n/a"
  in
  List.iter
    (fun (name, b_est) ->
      match List.assoc_opt name fresh with
      | None ->
        (* Kernel removed (or renamed): gate unless --allow-gone. *)
        gone := name :: !gone;
        Printf.printf "%-36s %s %12s %9s\n" name (pretty b_est) "-" "gone"
      | Some n_est ->
        if usable b_est && usable n_est then begin
          let b_ns = Option.get b_est and n_ns = Option.get n_est in
          let speedup = b_ns /. n_ns in
          let flag =
            if n_ns > b_ns *. 1.10 then begin
              regressions := name :: !regressions;
              "  REGRESSION"
            end
            else ""
          in
          Printf.printf "%-36s %12.4g %12.4g %8.2fx%s\n" name b_ns n_ns
            speedup flag
        end
        else
          (* A zero, non-finite or missing estimate on either side makes
             the ratio meaningless: show n/a and skip the gate. *)
          Printf.printf "%-36s %s %s %9s\n" name (pretty b_est)
            (pretty n_est) "n/a")
    base;
  List.iter
    (fun (name, n_est) ->
      if not (List.mem_assoc name base) then
        Printf.printf "%-36s %12s %s %9s\n" name "-" (pretty n_est) "new")
    fresh;
  (* Simulation counts are deterministic per section, so ANY increase is
     a real cost regression (more simulator runs for the same tables),
     not noise — gate on it loudly. *)
  let base_r = parse_regen base_path in
  let new_r = parse_regen new_path in
  let sim_regressions = ref [] in
  if base_r <> [] && new_r <> [] then begin
    Printf.printf "\n== Simulation-count comparison ==\n";
    Printf.printf "%-36s %10s %10s\n" "section" "base sims" "new sims";
    List.iter
      (fun (name, b_sims) ->
        match List.assoc_opt name new_r with
        | None ->
          gone := (name ^ " (regen)") :: !gone;
          Printf.printf "%-36s %10d %10s\n" name b_sims "gone"
        | Some n_sims ->
          let flag =
            if n_sims > b_sims then begin
              sim_regressions := name :: !sim_regressions;
              "  REGRESSION"
            end
            else ""
          in
          Printf.printf "%-36s %10d %10d%s\n" name b_sims n_sims flag)
      base_r;
    List.iter
      (fun (name, n_sims) ->
        if not (List.mem_assoc name base_r) then
          Printf.printf "%-36s %10s %10d\n" name "-" n_sims)
      new_r
  end;
  let failed = ref false in
  (match !regressions with
  | [] -> print_endline "No kernel regressed by more than 10%."
  | rs ->
    failed := true;
    Printf.printf "%d kernel(s) regressed by more than 10%%: %s\n"
      (List.length rs)
      (String.concat ", " (List.rev rs)));
  (match !sim_regressions with
  | [] -> ()
  | rs ->
    failed := true;
    Printf.printf
      "SIMULATION-COUNT REGRESSION: %d section(s) now run more simulations: %s\n"
      (List.length rs)
      (String.concat ", " (List.rev rs)));
  (match List.rev !gone with
  | [] -> ()
  | gs when allow_gone ->
    Printf.printf "%d baseline entr%s gone (allowed by --allow-gone): %s\n"
      (List.length gs)
      (if List.length gs = 1 then "y" else "ies")
      (String.concat ", " gs)
  | gs ->
    failed := true;
    Printf.printf
      "GONE: %d baseline entr%s missing from the new trajectory: %s\n\
       (pass --allow-gone if the removal is deliberate)\n"
      (List.length gs)
      (if List.length gs = 1 then "y" else "ies")
      (String.concat ", " gs));
  exit (if !failed then 1 else 0)

let () =
  (match Array.to_list Sys.argv with
  | _ :: rest ->
    let rec find = function
      | "--compare" :: a :: b :: _ ->
        let allow_gone = Array.exists (fun x -> x = "--allow-gone") Sys.argv in
        compare_trajectories ~allow_gone a b
      | [ "--compare" ] | [ "--compare"; _ ] ->
        prerr_endline "bench: --compare requires two JSON paths";
        exit 2
      | _ :: tl -> find tl
      | [] -> ()
    in
    find rest
  | [] -> ());
  let skip_bench = Array.exists (fun a -> a = "--no-bench") Sys.argv in
  let skip_figs = Array.exists (fun a -> a = "--no-figs") Sys.argv in
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  if Array.exists (fun a -> a = "--serve-saturation") Sys.argv then
    serve_saturation ~quick ();
  let path_flag flag =
    let p = ref None in
    Array.iteri
      (fun i a ->
        if a = flag then
          if i + 1 < Array.length Sys.argv then p := Some Sys.argv.(i + 1)
          else begin
            Printf.eprintf "bench: %s requires a path argument\n" flag;
            exit 2
          end)
      Sys.argv;
    !p
  in
  let json_path = path_flag "--json" in
  let telemetry_path = path_flag "--telemetry" in
  if telemetry_path <> None then Slc_obs.Telemetry.enable ();
  let kernels = if not skip_bench then run_benchmarks ~quick () else [] in
  if not skip_figs then regenerate ();
  (match json_path with
  | Some path -> write_json path ~kernels ~regen:(List.rev !regen_stats)
  | None -> ());
  match telemetry_path with
  | Some path ->
    let oc = open_out path in
    output_string oc (Slc_obs.Telemetry.dump_json ());
    close_out oc;
    Format.fprintf std "Wrote telemetry to %s@." path
  | None -> ()
