(* Allocation regression gates for the transient hot path, axis
   location, the oracle queries, the random generator, the SSTA design
   builder and the SSTA pass.

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
  let axis = Option.get (Slc_num.Interp.axis [| 0.0; 1.0; 2.0; 4.0; 8.0 |]) in
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
  let axis a = Option.get (Slc_num.Interp.axis a) in
  let table =
    {
      Slc_cell.Nldm.arc_name = Arc.name arc;
      sin_axis = axis [| 1e-12; 2e-11 |];
      cload_axis = axis [| 1e-16; 1e-15; 4e-15 |];
      vdd_axis = axis [| 0.6; 0.9 |];
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
   cons per net).  It measures 51.0 words per gate against a budget of
   60.3; the list-based pass measured 189.  Per-gate closures, candidate
   lists or option arrival records put back cost tens of words per gate
   each.  The pass runs on the calling domain, the one
   [Gc.minor_words] counts. *)
let ssta_budget_words = 60.3

(* Words per gate of a warm slack report: two passes prime [oracle]
   (and its cache, if it has one), the third is measured.  Each pass is
   given a cache, as the 100k-gate benchmark pass is; the pass ignores
   it.  Answers the minor words and the total words: minor plus major
   minus promoted, so that arrays too large for the minor heap count
   too.  [Gc.minor_words] is exact, while [Gc.counters] brings the
   major and promoted counts, which move together at each minor
   collection; the minor heap is emptied first, so every word promoted
   while measuring was allocated while measuring. *)
let warm_pass_words oracle =
  let module Sdag = Slc_ssta.Sdag in
  let module Generate = Slc_ssta.Generate in
  let d = Generate.design Tech.n14 ~vdd:0.8 ~seed:7 ~gates:2000 in
  let cache = Slc_ssta.Oracle.make_cache () in
  let outputs = Generate.required d 1e-9 in
  let input_arrivals _ = Generate.both_edges ~at:0.0 ~slew:5e-12 in
  let pass () =
    Sdag.slack_report_compiled ~cache d.Generate.compiled oracle
      ~input_arrivals ~outputs
  in
  ignore (pass ());
  ignore (pass ());
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (pass ()));
  let w1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  let gates = float_of_int (Sdag.compiled_gates d.Generate.compiled) in
  let minor = w1 -. w0 in
  ( minor /. gates,
    (minor +. (major1 -. major0) -. (promoted1 -. promoted0)) /. gates )

let test_warm_slack_report_allocation () =
  let oracle =
    {
      Slc_ssta.Oracle.label = "closed-form";
      query =
        (fun _ (p : Harness.point) ->
          ( 1e-12 +. (0.4 *. p.Harness.sin) +. (900.0 *. p.Harness.cload),
            2e-12 +. (0.3 *. p.Harness.sin) +. (400.0 *. p.Harness.cload) ));
    }
  in
  let per_gate, _ =
    warm_pass_words
      (Slc_ssta.Oracle.cached (Slc_ssta.Oracle.make_cache ()) oracle)
  in
  if per_gate > ssta_budget_words then
    Alcotest.failf
      "warm Sdag.slack_report_compiled allocated %.1f minor words per gate \
       (budget %.1f): per-gate boxing crept back into the SSTA pass"
      per_gate ssta_budget_words

(* The same warm pass over an NLDM library oracle, the path of the
   100k-gate benchmark pass.  No cache sits in front of the table, so
   every used candidate is a direct table query:
   a 4-word point and a 13-word answer (see
   [library_query_budget_words]) instead of a 7-word hit, plus the
   same rows.  It measures 70.9 words per gate against a budget of
   80.8. *)
let ssta_library_budget_words = 80.8

let test_warm_library_slack_report_allocation () =
  let lib =
    Slc_cell.Library.characterize
      ~cells:[ Cells.inv; Cells.nand2; Cells.nor2 ]
      Tech.n14 ~levels:[| 2; 2; 2 |]
  in
  let per_gate, _ = warm_pass_words (Slc_ssta.Oracle.of_library lib) in
  if per_gate > ssta_library_budget_words then
    Alcotest.failf
      "warm Sdag.slack_report_compiled over Oracle.of_library allocated \
       %.1f minor words per gate (budget %.1f): per-gate boxing crept \
       back into the SSTA pass or the table lookup"
      per_gate ssta_library_budget_words

(* The same warm library pass, counting every word it allocates: the
   minor words above plus the pass's scratch arrays, which are too large
   for the minor heap — per net an arrival block of four floats, a
   required time, and a sort key and a row index twice each; per pin
   two delay slots.  Measured 84.4 words per gate in total, 13.5 of
   them scratch arrays; each budget is its measured value plus 10%.
   Ten percent of the total is more than the scratch arrays cost, so
   the scratch words have their own budget: one more per-pin array, or
   two more per-net arrays, exceed it. *)
let ssta_library_total_budget_words = 92.8

let ssta_library_scratch_budget_words = 14.8

let test_warm_library_slack_report_total_allocation () =
  let lib =
    Slc_cell.Library.characterize
      ~cells:[ Cells.inv; Cells.nand2; Cells.nor2 ]
      Tech.n14 ~levels:[| 2; 2; 2 |]
  in
  let minor, total = warm_pass_words (Slc_ssta.Oracle.of_library lib) in
  if total > ssta_library_total_budget_words then
    Alcotest.failf
      "warm Sdag.slack_report_compiled over Oracle.of_library allocated \
       %.1f words per gate in total (budget %.1f)"
      total ssta_library_total_budget_words;
  if total -. minor > ssta_library_scratch_budget_words then
    Alcotest.failf
      "warm Sdag.slack_report_compiled over Oracle.of_library allocated \
       %.1f words per gate of scratch arrays (budget %.1f): a per-net or \
       per-pin array came back"
      (total -. minor) ssta_library_scratch_budget_words

(* The generator's four limbs live unboxed in one [Bytes.t], so
   [Rng.int] allocates nothing: measured 0 words, budget 0. *)
let test_rng_int_allocation () =
  let r = Slc_prob.Rng.create 3 in
  ignore (Slc_prob.Rng.int r 7);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Slc_prob.Rng.int r 7))
  done;
  let words = Gc.minor_words () -. before in
  if words > 0.0 then
    Alcotest.failf
      "1000 Rng.int draws allocated %.0f minor words (budget 0): the \
       generator boxes its state"
      words

(* [Rng.split_ix] allocates the child's 32-byte state and nothing else:
   measured 6 words; the budget is that plus 10%. *)
let split_ix_budget_words = 6.6

let test_rng_split_ix_allocation () =
  let r = Slc_prob.Rng.create 3 in
  ignore (Slc_prob.Rng.split_ix r 5);
  let n = 1000 in
  let before = Gc.minor_words () in
  for ix = 1 to n do
    ignore (Sys.opaque_identity (Slc_prob.Rng.split_ix r ix))
  done;
  let per_split = (Gc.minor_words () -. before) /. float_of_int n in
  if per_split > split_ix_budget_words then
    Alcotest.failf
      "Rng.split_ix allocated %.1f minor words (budget %.1f): the \
       generator boxes its state"
      per_split split_ix_budget_words

(* Building and compiling a generated design allocates, per gate, what
   the graph keeps: the child generator's state, the gate's name, its
   (pin, net) list and instance record, and the boxed wire cap it is
   given.  Measured 33.9 words per gate on the 2 000-gate design
   ([compile] included, 0.9 of them); the budget is that plus 10%. *)
let design_budget_words = 37.3

let test_design_allocation () =
  let module Generate = Slc_ssta.Generate in
  let build () = Generate.design Tech.n14 ~vdd:0.8 ~seed:7 ~gates:2000 in
  ignore (build ());
  let before = Gc.minor_words () in
  let d = Sys.opaque_identity (build ()) in
  let per_gate =
    (Gc.minor_words () -. before)
    /. float_of_int (Slc_ssta.Sdag.compiled_gates d.Generate.compiled)
  in
  if per_gate > design_budget_words then
    Alcotest.failf
      "Generate.design allocated %.1f minor words per gate (budget %.1f): \
       boxing crept back into the generator, the Sdag builder or compile"
      per_gate design_budget_words

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
      ( "rng",
        [
          Alcotest.test_case "int allocates nothing" `Quick
            test_rng_int_allocation;
          Alcotest.test_case "split_ix allocates only the child" `Quick
            test_rng_split_ix_allocation;
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
          Alcotest.test_case "warm library slack report fits per-gate budget"
            `Quick test_warm_library_slack_report_allocation;
          Alcotest.test_case
            "warm library slack report fits its total-word budget" `Quick
            test_warm_library_slack_report_total_allocation;
          Alcotest.test_case "design build and compile fit per-gate budget"
            `Quick test_design_allocation;
        ] );
    ]
