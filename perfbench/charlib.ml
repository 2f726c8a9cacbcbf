(* charlib: offline statistical characterization at n28, pool width 1.

   One flow = learn the n28 prior from the historical nodes, extract
   Bayes populations (curated design, k = 3) for the INV/NAND2/NOR2
   A-pin rise and fall arcs through a fresh Store, add one
   Adaptive-design population, and predict mu/sigma of delay and slew
   at the validation points.  cold_cpu_s is the process CPU time of one
   flow; warm_cpu_s that of the same calls answered from the populated
   store by a freshly opened handle. *)

open Perfbench
open Slc_core
module Tech = Slc_device.Tech
module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness
module Store = Slc_store.Store
module Rng = Slc_prob.Rng
module Hexfloat = Slc_num.Hexfloat

let tech = Inputs.tech
let budget = 3
let adaptive_arc = List.nth Inputs.charlib_arcs 1
let adaptive_rng = 7
let validation_points = 3
let validation_seed = 4242
let reference_file = "perfbench/data/charlib_ref.txt"

(* ------------------------------------------------------------------ *)
(* Monte-Carlo reference: per pool seed, simulated delay and slew (ps)
   at every validation point, for every arc. *)

type reference = {
  tolerance_pct : float;
  points : Harness.point array;
  per_arc : (string * (float * float) array array) list;
      (* arc name -> [pool seed][point] -> (td, sout) *)
}

let gen_reference ~tolerance_pct =
  let pool = Inputs.pool () in
  let points = Input_space.validation_set ~n:validation_points ~seed:validation_seed tech in
  Printf.printf "# Monte-Carlo reference for the charlib workload: per pool seed,\n";
  Printf.printf "# simulated delay and slew (ps) at each validation point.\n";
  Printf.printf "# Regenerate with: slcbench.exe gen-charlib-ref %g\n" tolerance_pct;
  Printf.printf "tolerance_pct %g\n" tolerance_pct;
  Printf.printf "pool %d %d\n" Inputs.pool_rng Inputs.pool_size;
  Array.iter
    (fun (p : Harness.point) ->
      Printf.printf "point %s %s %s\n" (Hexfloat.to_string p.sin)
        (Hexfloat.to_string p.cload) (Hexfloat.to_string p.vdd))
    points;
  List.iter
    (fun arc ->
      let b = Statistical.monte_carlo_baseline ~tech ~arc ~seeds:pool ~points in
      if b.Statistical.failed <> [] then failwith "reference simulation failed";
      Printf.printf "arc %s\n" (Arc.name arc);
      Array.iteri
        (fun s _ ->
          let cols =
            Array.to_list
              (Array.mapi
                 (fun p _ ->
                   Printf.sprintf "%.6g %.6g"
                     (b.Statistical.samples_td.(p).(s) *. 1e12)
                     (b.Statistical.samples_sout.(p).(s) *. 1e12))
                 points)
          in
          print_endline (String.concat " " cols))
        pool)
    Inputs.charlib_arcs

let load_reference () =
  let lines =
    In_channel.with_open_text reference_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let tol = ref nan and points = ref [] and arcs = ref [] and rows = ref [] in
  let flush_arc () =
    match !arcs with
    | (name, _) :: rest -> arcs := (name, Array.of_list (List.rev !rows)) :: rest
    | [] -> ()
  in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "tolerance_pct"; v ] -> tol := float_of_string v
      | [ "pool"; r; n ] ->
        if int_of_string r <> Inputs.pool_rng || int_of_string n <> Inputs.pool_size
        then failwith "charlib reference: pool does not match the generator"
      | [ "point"; s; c; v ] ->
        points :=
          { Harness.sin = Hexfloat.of_string s; cload = Hexfloat.of_string c;
            vdd = Hexfloat.of_string v }
          :: !points
      | [ "arc"; name ] ->
        flush_arc ();
        rows := [];
        arcs := (name, [||]) :: !arcs
      | cols ->
        let v = Array.of_list (List.map float_of_string cols) in
        rows := Array.init (Array.length v / 2) (fun p -> (v.(2 * p), v.(2 * p + 1))) :: !rows)
    lines;
  flush_arc ();
  { tolerance_pct = !tol; points = Array.of_list (List.rev !points); per_arc = !arcs }

(* Reference (mu, sigma) of delay and slew over the chosen pool seeds. *)
let reference_moments r ix arc =
  let rows = List.assoc (Arc.name arc) r.per_arc in
  Array.mapi
    (fun p _ ->
      let col f = Array.map (fun j -> f rows.(j).(p) *. 1e-12) ix in
      (Stat.mean_sd (col fst), Stat.mean_sd (col snd)))
    r.points

(* ------------------------------------------------------------------ *)
(* The flow *)

type setup = {
  reference : reference;
  seeds : Slc_device.Process.seed array;
  moments : (Arc.t * ((float * float) * (float * float)) array) list;
}

let setup ~seed () =
  let reference = load_reference () in
  let ix = Inputs.subset ~seed in
  let seeds = Inputs.process_seeds (Inputs.pool ()) ix in
  let moments =
    List.map (fun arc -> (arc, reference_moments reference ix arc)) Inputs.charlib_arcs
  in
  { reference; seeds; moments }

(* Per population: (arc, per point (td samples, sout samples)). *)
type predictions = (Arc.t * (float array * float array) array) list

(* A flow's populations: the curated design on every arc, then one
   adaptive-design population. *)
let populations () =
  List.map (fun arc -> (Statistical.Curated, arc)) Inputs.charlib_arcs
  @ [
      ( Statistical.Adaptive
          (Statistical.adaptive_defaults (Rng.create adaptive_rng)),
        adaptive_arc );
    ]

let n_pops = List.length (populations ())

let extract store prior s =
  List.map
    (fun (design, arc) ->
      let phase =
        match design with
        | Statistical.Adaptive _ -> "statistical.adaptive"
        | _ -> "statistical.curated"
      in
      Trace.span phase (fun () ->
          Trace.span "store.extract" (fun () ->
              ( arc,
                Store.extract_population ~store
                  ~method_:(Statistical.Bayes prior) ~design ~tech ~arc
                  ~seeds:s.seeds ~budget () ))))
    (populations ())

let predict s pops : predictions =
  Trace.span "statistical.predict" (fun () ->
      List.map
        (fun (arc, (pop, _)) ->
          ( arc,
            Array.map
              (fun pt ->
                ( Statistical.predict_samples pop pt ~td:true,
                  Statistical.predict_samples pop pt ~td:false ))
              s.reference.points ))
        pops)

(* One flow against the store in [dir]: (populations with outcomes,
   predictions). *)
let flow s dir =
  let store = Store.open_ dir in
  let prior =
    Trace.span "prior.learn" (fun () ->
        Store.get_prior store ~historical:(Tech.historical_for tech))
  in
  let pops = extract store prior s in
  (pops, predict s pops)

let failed_seeds pops =
  List.fold_left
    (fun acc (_, (pop, _)) ->
      Array.fold_left
        (fun acc st ->
          match st with Statistical.Seed_failed _ -> acc + 1 | _ -> acc)
        acc pop.Statistical.status)
    0 pops

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let same_predictions (a : predictions) (b : predictions) =
  List.for_all2
    (fun (_, pa) (_, pb) ->
      Array.for_all2
        (fun (ta, sa) (tb, sb) -> same_bits ta tb && same_bits sa sb)
        pa pb)
    a b

(* Worst relative mu/sigma error (%) of delay and slew over every
   population and validation point. *)
let err_pct s (preds : predictions) =
  List.fold_left
    (fun worst (arc, per_point) ->
      let refs = List.assq arc s.moments in
      Array.fold_left max worst
        (Array.mapi
           (fun p (td, so) ->
             let (rm_td, rs_td), (rm_so, rs_so) = refs.(p) in
             let m_td, s_td = Stat.mean_sd td and m_so, s_so = Stat.mean_sd so in
             let rel a b = 100.0 *. Float.abs (a -. b) /. Float.abs b in
             List.fold_left max 0.0
               [ rel m_td rm_td; rel s_td rs_td; rel m_so rm_so; rel s_so rs_so ])
           per_point))
    0.0 preds

(* A replay through a fresh handle: every population must be a store
   hit, cost no simulation, and predict bitwise what the cold flow did. *)
let replay s dir (cold : predictions) =
  let sims0 = Harness.sim_count () in
  let (pops, preds), cpu, _ =
    Stat.cpu_time (fun () -> Trace.span "store.replay" (fun () -> flow s dir))
  in
  let hits = List.for_all (fun (_, (_, o)) -> o = Store.Hit) pops in
  let ok =
    hits && Harness.sim_count () = sims0 && same_predictions cold preds
  in
  (ok, cpu)

let replays_per_flow = 5

type rep = {
  cpu : float;
  wall : float;
  sims : int;
  preds : predictions;
  failed : int;
  replay_s : float list;
  replay_ok : bool;
}

let rep s name =
  Gc.full_major ();
  let dir = Work.fresh name in
  let sims0 = Harness.sim_count () in
  let (pops, preds), cpu, wall = Stat.cpu_time (fun () -> flow s dir) in
  let sims = Harness.sim_count () - sims0 in
  let replays = List.init replays_per_flow (fun _ -> replay s dir preds) in
  Work.rm_rf dir;
  {
    cpu;
    wall;
    sims;
    preds;
    failed = failed_seeds pops;
    replay_s = List.map snd replays;
    replay_ok = List.for_all fst replays;
  }

(* Traced flow: the same work with spans and counters on, plus the
   in-memory extraction the store overhead is measured against. *)
let traced s untraced_cpu =
  let dir = Work.fresh "charlib-traced" in
  let g0 = Trace.start_counters () in
  Trace.enabled := true;
  let (_, preds), cpu, _ = Stat.cpu_time (fun () -> flow s dir) in
  let g1 = Gc.quick_stat () in
  let store_cold = Trace.total "store.extract" in
  let flow_spans =
    [
      ("prior.learn_s", Trace.total "prior.learn");
      ("prior.sims", Trace.sims "prior.learn");
      ("statistical.curated_s", Trace.total "statistical.curated");
      ("statistical.adaptive_s", Trace.total "statistical.adaptive");
    ]
  in
  (* The replay adds the store hits and nothing else. *)
  ignore (replay s dir preds);
  let counters = Trace.transient_metrics () in
  let bytes = Work.bytes dir in
  Trace.stop_counters ();
  (* In-memory extraction of the same populations. *)
  let prior = Store.get_prior (Store.open_ dir) ~historical:(Tech.historical_for tech) in
  Trace.span "statistical.in_memory" (fun () ->
      List.iter
        (fun (design, arc) ->
          ignore
            (Statistical.extract_population_design ~design
               ~method_:(Statistical.Bayes prior) ~tech ~arc ~seeds:s.seeds
               ~budget ()))
        (populations ()));
  Trace.enabled := false;
  Work.rm_rf dir;
  let lm = List.assoc "fit.lm_iters" counters in
  counters @ flow_spans
  @ Trace.gc_metrics g0 g1
  @ [
      ("fit.lm_per_seed", lm /. float_of_int (n_pops * Array.length s.seeds));
      ("statistical.err_pct", err_pct s preds);
      ("store.cold_s", store_cold);
      ("store.overhead_s", store_cold -. Trace.total "statistical.in_memory");
      ("store.bytes", float_of_int bytes);
      ("store.replay_s", Trace.total "store.replay");
      ("telemetry.overhead_pct", 100.0 *. ((cpu /. untraced_cpu) -. 1.0));
    ]

let run ~seed ~seconds ~trace =
  let s, setup_s = Stat.setups 31 (setup ~seed) in
  let reps =
    Stat.repeat ~seconds ~min:3 (fun i -> rep s (Printf.sprintf "charlib-%d" i))
  in
  let first = List.hd reps in
  let err = err_pct s first.preds in
  let deterministic =
    List.for_all
      (fun r -> r.sims = first.sims && same_predictions r.preds first.preds)
      reps
  in
  let replays_ok = List.for_all (fun r -> r.replay_ok) reps in
  let failed =
    List.fold_left
      (fun acc r -> acc + r.failed + if r.replay_ok then 0 else 1)
      0 reps
  in
  let cold = Stat.median (List.map (fun r -> r.cpu) reps) in
  let cold_wall = Stat.median (List.map (fun r -> r.wall) reps) in
  let warm = Stat.median (List.concat_map (fun r -> r.replay_s) reps) in
  let fits = n_pops * Array.length s.seeds in
  Printf.printf
    "charlib: %d flows, %d seeds x %d populations, k=%d, width %d\n\
    \  flow %.3f s CPU, %.3f s wall (medians of %d); replay %.4f s CPU (median \
     of %d)\n\
    \  sims per flow %d, err_pct %.3f (tolerance %g), replays %s, %s\n"
    (List.length reps) (Array.length s.seeds) n_pops budget
    (Slc_num.Parallel.domain_count ())
    cold cold_wall (List.length reps) warm
    (replays_per_flow * List.length reps)
    first.sims err s.reference.tolerance_pct
    (if replays_ok then "bitwise equal, zero sims" else "MISMATCHED")
    (if deterministic then "flows deterministic" else "flows DIFFER");
  let metrics =
    if trace then traced s cold
    else
      [
        ("setup_s", setup_s);
        ("cold_cpu_s", cold);
        ("warm_cpu_s", warm);
        ("peak_rss_mb", Stat.peak_rss_mb ());
      ]
  in
  {
    Metrics.correct =
      err <= s.reference.tolerance_pct && replays_ok && deterministic;
    attempted = List.length reps * (fits + replays_per_flow);
    failed;
    values = metrics;
  }
