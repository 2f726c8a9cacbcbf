(* Benchmark-owned spans around the calls into each layer, plus readers
   for the counters the program already exposes.  Spans are recorded
   only in traced runs (--trace 1), from the benchmark's main thread,
   and kept in memory until the run prints its table. *)

module Telemetry = Slc_obs.Telemetry

let enabled = ref false

type agg = {
  mutable calls : int;
  mutable total : float;
  mutable self : float;
  mutable sims : int;  (* simulator runs inside the span *)
}

let table : (string, agg) Hashtbl.t = Hashtbl.create 32
let order = ref []

(* Stack of open spans: time covered by each one's children so far. *)
let stack : float ref list ref = ref []

let span name f =
  if not !enabled then f ()
  else begin
    let children = ref 0.0 in
    stack := children :: !stack;
    let t0 = Stat.now () in
    let s0 = Slc_cell.Harness.sim_count () in
    Fun.protect f ~finally:(fun () ->
        let dt = Stat.now () -. t0 in
        stack := List.tl !stack;
        (match !stack with p :: _ -> p := !p +. dt | [] -> ());
        let a =
          match Hashtbl.find_opt table name with
          | Some a -> a
          | None ->
            let a = { calls = 0; total = 0.0; self = 0.0; sims = 0 } in
            Hashtbl.add table name a;
            order := name :: !order;
            a
        in
        a.calls <- a.calls + 1;
        a.total <- a.total +. dt;
        a.self <- a.self +. (dt -. !children);
        a.sims <- a.sims + (Slc_cell.Harness.sim_count () - s0))
  end

let total name =
  match Hashtbl.find_opt table name with Some a -> a.total | None -> 0.0

let sims name =
  match Hashtbl.find_opt table name with
  | Some a -> float_of_int a.sims
  | None -> 0.0

let print_table oc =
  Printf.fprintf oc "%-28s %8s %12s %12s %10s\n" "span" "calls" "total_s" "self_s"
    "sims";
  List.iter
    (fun name ->
      let a = Hashtbl.find table name in
      Printf.fprintf oc "%-28s %8d %12.6f %12.6f %10d\n" name a.calls a.total
        a.self a.sims)
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Program counters *)

let count c = float_of_int (Telemetry.read c)

(* A library span's (count, seconds), read from the telemetry dump. *)
let lib_span name =
  let json = Telemetry.dump_json () in
  let pat = Printf.sprintf "\"%s\": {" name in
  let rec find i =
    if i + String.length pat > String.length json then (0, 0.0)
    else if String.sub json i (String.length pat) = pat then
      Scanf.sscanf
        (String.sub json i (String.length json - i))
        "%_s { \"count\": %d, \"seconds\": %f }"
        (fun c s -> (c, s))
    else find (i + 1)
  in
  find 0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Metrics every workload reports from the program's own counters,
   read after a [Telemetry.reset] at the start of the traced phase. *)
let transient_metrics () =
  let sims = count Telemetry.simulations in
  let iters = count Telemetry.newton_iters in
  let steps = count Telemetry.transient_steps in
  let sim_calls, sim_s = lib_span "harness.simulate" in
  let hits = count Telemetry.template_hits in
  let misses = count Telemetry.template_misses in
  [
    ("transient.sims", sims);
    ("transient.newton_iters", iters);
    ("transient.steps", steps);
    ("transient.newton_per_step", ratio iters steps);
    ("transient.recovery_attempts", count Telemetry.recovery_attempts);
    ("transient.failures", count Telemetry.sim_failures);
    ("harness.simulate_s", sim_s);
    ("harness.us_per_sim", 1e6 *. ratio sim_s sims);
    ("harness.batch_calls", float_of_int sim_calls);
    ("harness.template_hit_ratio", ratio hits (hits +. misses));
    ("harness.retries", count Telemetry.sim_retries);
    ("fit.s", snd (lib_span "statistical.fit"));
    ("fit.lm_iters", count Telemetry.lm_iters);
    ("fit.gpr_fallbacks", count Telemetry.gpr_fallbacks);
    ("statistical.degraded_seeds", count Telemetry.degraded_seeds);
    ("statistical.failed_seeds", count Telemetry.failed_seeds);
    ("store.checkpoints", count Telemetry.store_checkpoints);
    ("store.hits", count Telemetry.store_hits);
    ("store.misses", count Telemetry.store_misses);
    ("parallel.chunks", count Telemetry.pool_chunks);
    ("oracle.hits", count Telemetry.oracle_hits);
    ("oracle.misses", count Telemetry.oracle_misses);
    ( "oracle.hit_ratio",
      ratio
        (count Telemetry.oracle_hits)
        (count Telemetry.oracle_hits +. count Telemetry.oracle_misses) );
    ("oracle.trained_hits", count Telemetry.trained_hits);
    ("oracle.trained_misses", count Telemetry.trained_misses);
  ]

let gc_metrics (g0 : Gc.stat) (g1 : Gc.stat) =
  [
    ("gc.minor_words", g1.minor_words -. g0.minor_words);
    ("gc.promoted_words", g1.promoted_words -. g0.promoted_words);
    ( "gc.major_collections",
      float_of_int (g1.major_collections - g0.major_collections) );
    ( "gc.top_heap_mb",
      float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
  ]

(* Starts counting: telemetry on and zeroed; returns the GC baseline. *)
let start_counters () =
  Telemetry.enable ();
  Telemetry.reset ();
  Gc.quick_stat ()

let stop_counters () = Telemetry.disable ()
