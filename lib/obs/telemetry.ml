let[@slc.domain_safe "boolean toggle; racy reads only skip or count an event"]
    enabled =
  ref
    (match Sys.getenv_opt "SLC_TELEMETRY" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

let on () = !enabled

let enable () = enabled := true

let disable () = enabled := false

type counter = { c_name : string; c_cell : int Atomic.t }

(* All counters and spans are created at module-initialization time, so
   the registries need no locking. *)
let[@slc.domain_safe "written only at module-initialization time"] counters :
    counter list ref =
  ref []

let make_counter name =
  let c = { c_name = name; c_cell = Atomic.make 0 } in
  counters := c :: !counters;
  c

let incr c = if !enabled then Atomic.incr c.c_cell

let add c n = if !enabled then ignore (Atomic.fetch_and_add c.c_cell n : int)

let read c = Atomic.get c.c_cell

let simulations = make_counter "simulations"

let sim_retries = make_counter "sim_retries"

let sim_failures = make_counter "sim_failures"

let newton_iters = make_counter "newton_iters"

let newton_rejects = make_counter "newton_rejects"

let transient_steps = make_counter "transient_steps"

let recovery_attempts = make_counter "recovery_attempts"

let recovery_rescues = make_counter "recovery_rescues"

let degraded_runs = make_counter "degraded_runs"

let dc_gmin_fallbacks = make_counter "dc_gmin_fallbacks"

let dc_source_fallbacks = make_counter "dc_source_fallbacks"

let lm_iters = make_counter "lm_iters"

let lm_non_finite = make_counter "lm_non_finite"

let template_hits = make_counter "template_hits"

let template_misses = make_counter "template_misses"

let oracle_hits = make_counter "oracle_hits"

let oracle_misses = make_counter "oracle_misses"

let trained_hits = make_counter "trained_hits"

let trained_misses = make_counter "trained_misses"

let pool_chunks = make_counter "pool_chunks"

let store_hits = make_counter "store_hits"

let store_misses = make_counter "store_misses"

let store_checkpoints = make_counter "store_checkpoints"

let store_resumed_seeds = make_counter "store_resumed_seeds"

let store_checkpoint_bytes = make_counter "store_checkpoint_bytes"

let degraded_seeds = make_counter "degraded_seeds"

let failed_seeds = make_counter "failed_seeds"

let gpr_fallbacks = make_counter "gpr_fallbacks"

let server_connections = make_counter "server_connections"

let server_requests = make_counter "server_requests"

let server_errors = make_counter "server_errors"

(* Spans accumulate wall time in nanoseconds so the accumulator can be
   a lock-free integer. *)
type span = { s_name : string; s_count : int Atomic.t; s_ns : int Atomic.t }

let[@slc.domain_safe "written only at module-initialization time"] spans :
    span list ref =
  ref []

let make_span name =
  let s = { s_name = name; s_count = Atomic.make 0; s_ns = Atomic.make 0 } in
  spans := s :: !spans;
  s

let span_simulate = make_span "harness.simulate"

let span_fit = make_span "statistical.fit"

let span_extract = make_span "statistical.extract_population"

let span_baseline = make_span "statistical.monte_carlo_baseline"

let[@slc.det_ok
     "wall-clock readings feed the span accumulators only, never a \
      characterization result; the instrumented computation's value is \
      returned unchanged (the CI telemetry run re-asserts bitwise \
      equality with spans live)"] with_span s f =
  if not !enabled then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
        Atomic.incr s.s_count;
        ignore (Atomic.fetch_and_add s.s_ns ns : int))
      f
  end

let reset () =
  List.iter (fun c -> Atomic.set c.c_cell 0) !counters;
  List.iter
    (fun s ->
      Atomic.set s.s_count 0;
      Atomic.set s.s_ns 0)
    !spans

let in_creation_order l = List.rev !l

(* Per-name counter readings at one instant — the unit the server diffs
   per connection.  Stored in creation order, like every dump. *)
type snapshot = (string * int) list

let snapshot () =
  List.map (fun c -> (c.c_name, read c)) (in_creation_order counters)

let diff ~before ~after =
  List.map
    (fun (name, v1) ->
      let v0 = Option.value ~default:0 (List.assoc_opt name before) in
      (name, v1 - v0))
    after

let snapshot_value snap name = Option.value ~default:0 (List.assoc_opt name snap)

(* Emit ["key": payload] members separated by ",\n": tracking "is a
   previous member pending?" instead of "is this the last index?" needs
   no length precomputation and no per-element [List.length] (the old
   [iteri] recomputed the length for every element — quadratic in the
   counter count). *)
let add_members b items add_one =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ",\n";
      add_one x)
    items;
  if items <> [] then Buffer.add_char b '\n'

let dump_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"enabled\": %b,\n  \"counters\": {\n" !enabled);
  add_members b (in_creation_order counters) (fun c ->
      Buffer.add_string b (Printf.sprintf "    \"%s\": %d" c.c_name (read c)));
  Buffer.add_string b "  },\n  \"spans\": {\n";
  add_members b (in_creation_order spans) (fun s ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": { \"count\": %d, \"seconds\": %.6f }"
           s.s_name (Atomic.get s.s_count)
           (float_of_int (Atomic.get s.s_ns) /. 1e9)));
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

let report ppf =
  Format.fprintf ppf "telemetry (%s):@."
    (if !enabled then "enabled" else "disabled");
  List.iter
    (fun c ->
      let v = read c in
      if v <> 0 then Format.fprintf ppf "  %-24s %d@." c.c_name v)
    (in_creation_order counters);
  List.iter
    (fun s ->
      let n = Atomic.get s.s_count in
      if n <> 0 then
        Format.fprintf ppf "  %-24s %d calls, %.3f s@." s.s_name n
          (float_of_int (Atomic.get s.s_ns) /. 1e9))
    (in_creation_order spans)
