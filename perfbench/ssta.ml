(* ssta: a 100k-gate generated design timed against an NLDM library
   oracle at pool width 2.  cold_cpu_s is the process CPU time of a
   slack-report pass on a fresh exact oracle cache; warm_cpu_s that of
   a pass on a primed cache.  Every pass's rows must match the digest
   stored for the design. *)

open Perfbench
module Tech = Slc_device.Tech
module Cells = Slc_cell.Cells
module Oracle = Slc_ssta.Oracle
module Sdag = Slc_ssta.Sdag
module Generate = Slc_ssta.Generate
module Parallel = Slc_num.Parallel

let tech = Inputs.tech
let digest_file = "perfbench/data/ssta_digests.txt"
let required_time = 1e-9
let setups = 9
let input_arrivals _ = Generate.both_edges ~at:0.0 ~slew:5e-12

let setup ~seed () =
  let lib =
    Trace.span "library.characterize" (fun () ->
        Slc_cell.Library.characterize
          ~cells:[ Cells.inv; Cells.nand2; Cells.nor2 ]
          tech ~levels:[| 2; 2; 2 |])
  in
  let d =
    Trace.span "generate.design" (fun () ->
        Generate.design tech ~vdd:tech.Tech.vdd_nom
          ~seed:(Inputs.design_seed ~seed) ~gates:Inputs.ssta_gates)
  in
  (Oracle.of_library lib, d)

let pass (oracle, d) cache =
  Sdag.slack_report_compiled ~cache d.Generate.compiled oracle ~input_arrivals
    ~outputs:(Generate.required d required_time)

(* Bitwise digest of the slack rows. *)
let digest rows =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun r ->
      Printf.bprintf b "%s %h %h %h\n" r.Sdag.net_label r.Sdag.arrival_time
        r.Sdag.required_time r.Sdag.slack)
    rows;
  Digest.to_hex (Digest.string (Buffer.contents b))

let gen_digests () =
  Printf.printf "# Slack-report digests of the ssta designs, one per design seed.\n";
  Printf.printf "# Regenerate with: slcbench.exe gen-ssta-digests\n";
  for s = 0 to Inputs.ssta_designs - 1 do
    let st = setup ~seed:s () in
    Printf.printf "%d %s\n%!" s (digest (pass st (Oracle.make_cache ())))
  done

let stored_digest ~seed =
  let want = Inputs.design_seed ~seed in
  In_channel.with_open_text digest_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | [ s; d ] when s = string_of_int want -> Some d
         | _ -> None)
  |> function
  | Some d -> d
  | None -> failwith (Printf.sprintf "no stored digest for design %d" want)

let run ~seed ~seconds ~trace =
  if trace then Trace.enabled := true;
  let st, setup_s = Stat.setups setups (setup ~seed) in
  let d = snd st in
  let expected = stored_digest ~seed in
  let attempted = ref 0 and failed = ref 0 in
  let checked rows =
    incr attempted;
    if digest rows <> expected then incr failed
  in
  let g0 = if trace then Trace.start_counters () else Gc.quick_stat () in
  (* Each pass starts from a collected heap, so it does not pay for
     sweeping what the pass before it left behind. *)
  let timed_pass name cache =
    Gc.full_major ();
    let rows, cpu, wall =
      Stat.cpu_time (fun () -> Trace.span name (fun () -> pass st cache))
    in
    checked rows;
    (cpu, wall)
  in
  (* Cycles of one cold pass and one warm pass on its cache. *)
  let cycles =
    Stat.repeat ~seconds ~min:3 (fun _ ->
        let cache = Oracle.make_cache () in
        let c = timed_pass "sdag.cold_pass" cache in
        (c, timed_pass "sdag.warm_pass" cache))
  in
  let cold, warm = List.split cycles in
  let gates = Sdag.compiled_gates d.Generate.compiled in
  let cpu l = Stat.median (List.map fst l) and wall l = Stat.median (List.map snd l) in
  let widths = Sdag.level_widths d.Generate.compiled in
  Printf.printf
    "ssta: design %d, %d gates, %d levels, width %d\n\
    \  cold pass %.3f s CPU, %.3f s wall (medians of %d)\n\
    \  warm pass %.3f s CPU, %.3f s wall (medians of %d)\n\
    \  %d/%d passes matched digest %s\n"
    (Inputs.design_seed ~seed) gates (Array.length widths)
    (Parallel.domain_count ()) (cpu cold) (wall cold) (List.length cold)
    (cpu warm) (wall warm) (List.length warm) (!attempted - !failed) !attempted
    expected;
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s);
        ("cold_cpu_s", cpu cold);
        ("warm_cpu_s", cpu warm);
        ("peak_rss_mb", Stat.peak_rss_mb ());
      ]
    else begin
      let g1 = Gc.quick_stat () in
      let counters = Trace.transient_metrics () in
      Trace.stop_counters ();
      (* Cache occupancy, and the sequential reference pass on it. *)
      let cache = Oracle.make_cache () in
      ignore (pass st cache);
      let traced_warm = Trace.total "sdag.warm_pass" /. float_of_int (List.length warm) in
      Gc.full_major ();
      let seq_rows, seq = Stat.time (fun () -> Parallel.sequential (fun () -> pass st cache)) in
      checked seq_rows;
      (* Untraced width-2 warm passes, from a collected heap like the
         traced ones: the speedup and overhead base. *)
      let par =
        Stat.median
          (List.init 3 (fun _ ->
               Gc.full_major ();
               let rows, dt = Stat.time (fun () -> pass st cache) in
               checked rows;
               dt))
      in
      counters
      @ Trace.gc_metrics g0 g1
      @ [
          ("parallel.speedup", seq /. par);
          ("oracle.cache_size", float_of_int (Oracle.cache_size cache));
          ("sdag.gates", float_of_int gates);
          ("sdag.levels", float_of_int (Array.length widths));
          ("sdag.max_level_width", float_of_int (Array.fold_left max 0 widths));
          ("sdag.cold_pass_s", Trace.total "sdag.cold_pass" /. float_of_int (List.length cold));
          ("sdag.warm_pass_s", traced_warm);
          ("sdag.gates_per_s", float_of_int gates /. traced_warm);
          ("generate.design_s", Trace.total "generate.design" /. float_of_int setups);
          ("library.characterize_s", Trace.total "library.characterize" /. float_of_int setups);
          ("telemetry.overhead_pct", 100.0 *. ((traced_warm /. par) -. 1.0));
        ]
    end
  in
  { Metrics.correct = !failed = 0; attempted = !attempted; failed = !failed; values = metrics }
