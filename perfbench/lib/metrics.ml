(* Metric catalogue and the one-line JSON result. *)

(* End-to-end metrics: every workload reports each of them (run with
   --trace 0).  Times are process CPU seconds (Stat.cpu); what "cold"
   and "warm" mean per workload is documented in perfbench/README.md. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("cold_cpu_s", "s");
    ("warm_cpu_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* Per-layer metrics (run with --trace 1).  A workload reports 0 for a
   layer it does not exercise. *)
let per_layer =
  [
    ("transient.sims", "count");
    ("transient.newton_iters", "count");
    ("transient.steps", "count");
    ("transient.newton_per_step", "ratio");
    ("transient.recovery_attempts", "count");
    ("transient.failures", "count");
    ("harness.simulate_s", "s");
    ("harness.us_per_sim", "us");
    ("harness.batch_calls", "count");
    ("harness.template_hit_ratio", "ratio");
    ("harness.retries", "count");
    ("prior.learn_s", "s");
    ("prior.sims", "count");
    ("fit.s", "s");
    ("fit.lm_iters", "count");
    ("fit.lm_per_seed", "ratio");
    ("fit.gpr_fallbacks", "count");
    ("statistical.curated_s", "s");
    ("statistical.adaptive_s", "s");
    ("statistical.degraded_seeds", "count");
    ("statistical.failed_seeds", "count");
    ("statistical.err_pct", "%");
    ("store.cold_s", "s");
    ("store.overhead_s", "s");
    ("store.checkpoints", "count");
    ("store.bytes", "B");
    ("store.replay_s", "s");
    ("store.hits", "count");
    ("store.misses", "count");
    ("parallel.chunks", "count");
    ("parallel.speedup", "ratio");
    ("oracle.hits", "count");
    ("oracle.misses", "count");
    ("oracle.hit_ratio", "ratio");
    ("oracle.cache_size", "count");
    ("oracle.trained_hits", "count");
    ("oracle.trained_misses", "count");
    ("sdag.gates", "count");
    ("sdag.levels", "count");
    ("sdag.max_level_width", "count");
    ("sdag.cold_pass_s", "s");
    ("sdag.warm_pass_s", "s");
    ("sdag.gates_per_s", "1/s");
    ("generate.design_s", "s");
    ("library.characterize_s", "s");
    ("verilog.parse_s", "s");
    ("verilog.to_sdag_s", "s");
    ("sdag.slack_report_s", "s");
    ("protocol.parse_us", "us");
    ("protocol.format_us", "us");
    ("engine.exec_us.delay", "us");
    ("engine.exec_us.pdf", "us");
    ("engine.exec_us.sta", "us");
    ("engine.wasted_sims", "count");
    ("server.p50_us", "us");
    ("server.p99_us", "us");
    ("server.transport_us", "us");
    ("server.requests", "count");
    ("server.errors", "count");
    ("server.mismatches", "count");
    ("client.delay_p99_ms", "ms");
    ("client.sta_p50_ms", "ms");
    ("gc.minor_words", "words");
    ("gc.promoted_words", "words");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("telemetry.overhead_pct", "%");
  ]

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (* what the workload measured *)
}

(* Full precision, and always a JSON number: a non-finite value is a
   benchmark bug, not something to print. *)
let number v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Metrics.number: non-finite value %h" v)
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line, reporting every metric of [catalogue]: anything the
   workload did not measure reads 0. *)
let json catalogue r =
  let metric (name, unit_) =
    let v = Option.value ~default:0.0 (List.assoc_opt name r.values) in
    if not (valid_name name) then
      invalid_arg (Printf.sprintf "Metrics.json: bad metric name %S" name);
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric catalogue))
