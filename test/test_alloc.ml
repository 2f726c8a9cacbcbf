(* Allocation regression gates for the transient hot path and the
   oracle query cache.

   A warmed [Harness.simulate] (template compiled and cached) allocates
   ~9.7k minor words per call, essentially all of it in the per-call
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

let budget_words = 10_650.0

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
        ] );
    ]
