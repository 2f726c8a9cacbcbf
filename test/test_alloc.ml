(* Allocation regression gates for the transient hot path, axis
   location, the oracle queries and the SSTA pass.

   A warmed [Harness.simulate] (template compiled and cached) allocates
   ~8.4k minor words per call, essentially all of it in the per-call
   solver workspace, waveform recording and measurement layers — the
   Newton/stamp/LU core is allocation-free (see [@slc.hot] and lint
   rule R3).  The budget below is that measurement plus 10% headroom: a
   regression that puts boxing back into the solver loop costs hundreds
   of kwords per call and trips this immediately, while legitimate small
   changes to the measurement layer fit inside the slack. *)

module Tech = Slc_device.Tech
module Harness = Slc_cell.Harness
module Arc = Slc_cell.Arc
module Cells = Slc_cell.Cells

let budget_words = 9_290.0

let test_warm_simulate_allocation () =
  let tech = Tech.n14 in
  let arc = List.hd (Arc.all_of_cell Cells.inv) in
  let point = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 } in
  (* Two warm-up calls: the first builds and caches the compiled
     template, the second settles any lazy one-time state. *)
  ignore (Harness.simulate tech arc point);
  ignore (Harness.simulate tech arc point);
  let before = Gc.minor_words () in
  ignore (Harness.simulate tech arc point);
  let delta = Gc.minor_words () -. before in
  if delta > budget_words then
    Alcotest.failf
      "warmed Harness.simulate allocated %.0f minor words (budget %.0f): \
       boxing crept back into the transient hot path"
      delta budget_words

let test_warm_simulate_is_cached () =
  let tech = Tech.n14 in
  let arc = List.hd (Arc.all_of_cell Cells.nand2) in
  let point = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 } in
  ignore (Harness.simulate tech arc point);
  let hits0 = Slc_obs.Telemetry.read Slc_obs.Telemetry.template_hits in
  ignore (Harness.simulate tech arc point);
  let hits1 = Slc_obs.Telemetry.read Slc_obs.Telemetry.template_hits in
  (* Telemetry may be disabled in this environment; only assert when the
     counters are live, otherwise the allocation gate above still holds. *)
  if Slc_obs.Telemetry.on () then
    Alcotest.(check bool)
      "second simulate reuses the compiled template" true (hits1 > hits0)

(* [simulate_batch] is a pool map of [simulate], so a lane may cost no
   more than a scalar call.  The map runs under [Parallel.sequential]:
   [Gc.minor_words] counts only the calling domain's allocation. *)
let test_warm_batch_allocation () =
  let tech = Tech.n14 in
  let arc = List.hd (Arc.all_of_cell Cells.inv) in
  let lanes =
    Array.init 16 (fun i ->
        ( Slc_device.Process.nominal,
          {
            Harness.sin = 5e-12;
            cload = 2e-15 *. (1.0 +. (0.02 *. float_of_int i));
            vdd = 0.8;
          } ))
  in
  let run () =
    Slc_num.Parallel.sequential (fun () ->
        ignore (Harness.simulate_batch tech arc lanes))
  in
  run ();
  run ();
  let before = Gc.minor_words () in
  run ();
  let per_lane =
    (Gc.minor_words () -. before) /. float_of_int (Array.length lanes)
  in
  if per_lane > budget_words then
    Alcotest.failf
      "warmed Harness.simulate_batch allocated %.0f minor words per lane \
       (budget %.0f): boxing crept back into the transient hot path"
      per_lane budget_words

(* A warmed [Oracle.cached] hit hashes the key, probes a flat float
   table and returns the stored pair: the only allocation left is that
   (float * float) result — 3 words for the tuple, 2 for each boxed
   float.  A key tuple, a formatted arc name or a boxed coordinate
   creeping back into the hit path overshoots this at once. *)
let hit_budget_words = 7.0

let test_warm_oracle_hit_allocation () =
  let module Oracle = Slc_ssta.Oracle in
  let base =
    {
      Oracle.label = "synthetic";
      query = (fun _ (p : Harness.point) -> (p.Harness.sin, p.Harness.cload));
    }
  in
  let w = Oracle.cached (Oracle.make_cache ()) base in
  let arc = List.hd (Arc.all_of_cell Cells.nand2) in
  let point = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 } in
  ignore (w.Oracle.query arc point);
  ignore (w.Oracle.query arc point);
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (w.Oracle.query arc point))
  done;
  let per_hit = (Gc.minor_words () -. before) /. float_of_int n in
  if per_hit > hit_budget_words then
    Alcotest.failf
      "warmed Oracle.cached hit allocated %.1f minor words (budget %.0f): \
       boxing crept back into the query cache's hit path"
      per_hit hit_budget_words

(* [Interp.locate] compares unboxed floats: a clamped or a searched
   coordinate allocates nothing.  The coordinates are boxed once, up
   front, so the calls themselves box nothing. *)
let test_locate_allocation () =
  let axis = [| 0.0; 1.0; 2.0; 4.0; 8.0 |] in
  let below = Sys.opaque_identity (-1.0)
  and inside = Sys.opaque_identity 3.0
  and above = Sys.opaque_identity 9.0 in
  let locate x = Slc_num.Interp.locate axis x in
  ignore (locate inside);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (locate below));
    ignore (Sys.opaque_identity (locate inside));
    ignore (Sys.opaque_identity (locate above))
  done;
  let words = Gc.minor_words () -. before in
  if words > 0.0 then
    Alcotest.failf
      "3000 Interp.locate calls allocated %.0f minor words (budget 0): \
       the axis comparisons box floats"
      words

(* An [Oracle.of_library] query interpolates delay and slew from one
   shared location on the table's axes, with the interpolation inlined
   so that no weight or corner value is boxed.  It allocates its
   (float * float) result, 7 words, and the three coordinates it hands
   to [Interp.locate], 2 words each: [Interp] lives in another library,
   and a float argument crossing that boundary is boxed. *)
let library_query_budget_words = 13.0

let test_library_query_allocation () =
  let module Oracle = Slc_ssta.Oracle in
  let arc = List.hd (Arc.all_of_cell Cells.inv) in
  let grid f =
    Array.init 2 (fun i ->
        Array.init 3 (fun j ->
            Array.init 2 (fun k -> f (float_of_int ((4 * i) + (2 * j) + k)))))
  in
  let table =
    {
      Slc_cell.Nldm.arc_name = Arc.name arc;
      sin_axis = [| 1e-12; 2e-11 |];
      cload_axis = [| 1e-16; 1e-15; 4e-15 |];
      vdd_axis = [| 0.6; 0.9 |];
      td = grid (fun v -> 1e-12 *. (1.0 +. v));
      sout = grid (fun v -> 2e-12 *. (1.0 +. v));
      energy = grid (fun v -> 1e-15 *. v);
    }
  in
  let oracle =
    Oracle.of_library
      {
        Slc_cell.Library.tech = Tech.n14;
        entries = [ { Slc_cell.Library.arc; table } ];
        sim_runs = 0;
      }
  in
  let point = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 } in
  ignore (oracle.Oracle.query arc point);
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (oracle.Oracle.query arc point))
  done;
  let per_query = (Gc.minor_words () -. before) /. float_of_int n in
  if per_query > library_query_budget_words then
    Alcotest.failf
      "Oracle.of_library query allocated %.1f minor words (budget %.0f): \
       the interpolation boxes floats"
      per_query library_query_budget_words

(* A warm slack report on a primed cache keeps its pass state in flat
   arrays, so what it allocates per gate is the oracle's point and
   answer for each used candidate (a 4-word point and a 7-word cache
   hit; this design averages 3.3 candidates per gate) and its share of
   the rows (a 5-word row, its three 2-word boxed floats and a 3-word
   cons per net).  The budget is the measured 54.8 words per gate plus
   10%; the list-based pass measured 189.  Per-gate closures, candidate
   lists or option arrival records put back cost tens of words per gate
   each.  [Parallel.sequential]: [Gc.minor_words] counts only the
   calling domain. *)
let ssta_budget_words = 60.3

let test_warm_slack_report_allocation () =
  let module Sdag = Slc_ssta.Sdag in
  let module Oracle = Slc_ssta.Oracle in
  let module Generate = Slc_ssta.Generate in
  let tech = Tech.n14 in
  let d = Generate.design tech ~vdd:0.8 ~seed:7 ~gates:2000 in
  let oracle =
    {
      Oracle.label = "closed-form";
      query =
        (fun _ (p : Harness.point) ->
          ( 1e-12 +. (0.4 *. p.Harness.sin) +. (900.0 *. p.Harness.cload),
            2e-12 +. (0.3 *. p.Harness.sin) +. (400.0 *. p.Harness.cload) ));
    }
  in
  let cache = Oracle.make_cache () in
  let outputs = Generate.required d 1e-9 in
  let input_arrivals _ = Generate.both_edges ~at:0.0 ~slew:5e-12 in
  let pass () =
    Slc_num.Parallel.sequential (fun () ->
        Sdag.slack_report_compiled ~cache d.Generate.compiled oracle
          ~input_arrivals ~outputs)
  in
  ignore (pass ());
  ignore (pass ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (pass ()));
  let per_gate =
    (Gc.minor_words () -. before)
    /. float_of_int (Sdag.compiled_gates d.Generate.compiled)
  in
  if per_gate > ssta_budget_words then
    Alcotest.failf
      "warm Sdag.slack_report_compiled allocated %.1f minor words per gate \
       (budget %.1f): per-gate boxing crept back into the SSTA pass"
      per_gate ssta_budget_words

let () =
  Alcotest.run "alloc"
    [
      ( "transient",
        [
          Alcotest.test_case "warmed simulate fits budget" `Quick
            test_warm_simulate_allocation;
          Alcotest.test_case "template cache hit" `Quick
            test_warm_simulate_is_cached;
          Alcotest.test_case "warmed batch fits per-lane budget" `Quick
            test_warm_batch_allocation;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "warmed cache hit allocates only its result"
            `Quick test_warm_oracle_hit_allocation;
          Alcotest.test_case "library query boxes no interpolation value"
            `Quick test_library_query_allocation;
        ] );
      ( "interp",
        [
          Alcotest.test_case "locate allocates nothing" `Quick
            test_locate_allocation;
        ] );
      ( "ssta",
        [
          Alcotest.test_case "warm slack report fits per-gate budget" `Quick
            test_warm_slack_report_allocation;
        ] );
    ]
