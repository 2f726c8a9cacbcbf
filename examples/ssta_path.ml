(* SSTA consumer: what the characterized library is actually for.

   A 5-stage logic path is analyzed three ways:
     1. transistor-level transient simulation of the whole chain
        (ground truth);
     2. the chain as a timing graph ([Sdag.of_chain]) timed with a
        Bayesian-characterized compact model (k = 3 simulations per
        arc);
     3. statistical: per-seed compact models give the full path-delay
        distribution with zero additional simulations per seed/corner.

   Run with: dune exec examples/ssta_path.exe *)

module Tech = Slc_device.Tech
module Process = Slc_device.Process
open Slc_cell
open Slc_core
open Slc_ssta

let () =
  let tech = Tech.n14 in
  let vdd = 0.8 and sin = 5e-12 in
  let chain =
    Chain.make tech
      [
        Chain.stage Cells.inv "A";
        Chain.stage ~wire_cap:1e-15 Cells.nand2 "A";
        Chain.stage Cells.nor2 "B";
        Chain.stage ~wire_cap:0.5e-15 Cells.inv "A";
        Chain.stage Cells.aoi21 "A";
      ]
  in
  Printf.printf "Path: %s\n"
    (String.concat " -> "
       (List.map (fun a -> Arc.name a) (Chain.arcs_of chain ~in_rises:true)));

  (* 1. Ground truth: simulate the full chain. *)
  let truth = Chain.simulate chain ~sin ~vdd ~in_rises:true in
  Printf.printf "\nTransistor-level chain:  %.2f ps\n"
    (truth.Chain.total_delay *. 1e12);

  (* 2. Model-based propagation (the library consumer's view). *)
  Printf.printf "Learning prior / characterizing arcs (k = 3 each)...\n%!";
  let prior =
    Prior.learn_pair
      ~cells:[ Cells.inv; Cells.nand2; Cells.nor2 ]
      ~grid_levels:[| 3; 3; 2 |]
      ~historical:[ Tech.n20; Tech.n28 ] ()
  in
  Harness.reset_sim_count ();
  let oracle = Oracle.bayes_bank ~prior tech ~k:3 in
  (* The chain as a timing graph: only the chain input launches an
     edge; the side pins are static. *)
  let dag, chain_in, chain_out = Sdag.of_chain chain ~vdd in
  let input_arrivals name =
    if String.equal name (Sdag.net_name dag chain_in) then
      Sdag.input_edge ~at:0.0 ~slew:sin ~rises:true
    else { Sdag.rise = None; fall = None }
  in
  (* Five inverting stages: the rising input arrives as a falling output. *)
  let model =
    match Sdag.analyze dag oracle ~input_arrivals chain_out with
    | { Sdag.fall = Some e; _ } -> e
    | _ -> assert false
  in
  Printf.printf "Model-based propagation: %.2f ps  (error %+.1f%%, %d sims)\n"
    (model.Sdag.at *. 1e12)
    (100.0
    *. (model.Sdag.at -. truth.Chain.total_delay)
    /. truth.Chain.total_delay)
    (Harness.sim_count ());
  Printf.printf "    output slew %.2f ps, output load %.2f fF\n"
    (model.Sdag.slew *. 1e12)
    (Sdag.net_cap dag chain_out *. 1e15);

  (* 3. Statistical SSTA: path-delay distribution under process
     variation, from per-seed compact models. *)
  let n_seeds = 60 in
  let rng = Slc_prob.Rng.create 12 in
  let seeds = Process.sample_batch rng tech n_seeds in
  Harness.reset_sim_count ();
  let population arc =
    Statistical.extract_population ~method_:(Statistical.Bayes prior) ~tech
      ~arc ~seeds ~budget:3 ()
  in
  (* Per-seed path delays; the clock period is irrelevant here, the
     yield is classified against a real one below. *)
  let samples =
    (Yield.of_dag ~population ~seeds ~clock_period:1.0 dag ~input_arrivals
       ~outputs:[ chain_out ])
      .Yield.delays
  in
  let model_sims = Harness.sim_count () in
  (* MC ground truth: simulate the whole chain per seed. *)
  Harness.reset_sim_count ();
  let mc =
    Array.map
      (fun seed -> (Chain.simulate ~seed chain ~sin ~vdd ~in_rises:true).Chain.total_delay)
      seeds
  in
  let mc_sims = Harness.sim_count () in
  let module D = Slc_prob.Describe in
  Printf.printf "\nStatistical path delay over %d seeds:\n" n_seeds;
  Printf.printf "    %-18s mean %6.2f ps  sigma %5.2f ps   (%d sims)\n"
    "per-seed models" (D.mean samples *. 1e12) (D.std samples *. 1e12)
    model_sims;
  Printf.printf "    %-18s mean %6.2f ps  sigma %5.2f ps   (%d sims)\n"
    "chain Monte Carlo" (D.mean mc *. 1e12) (D.std mc *. 1e12) mc_sims;
  Printf.printf "    KS distance: %.3f\n"
    (Slc_prob.Stattest.ks_two_sample samples mc);
  (* 4. Timing yield: what fraction of dies meets a clock constraint? *)
  let tclk = D.mean mc *. 1.10 in
  let y = Yield.of_delays ~clock_period:tclk samples in
  Printf.printf "\nYield at Tclk = mean + 10%% (%.2f ps): %s\n" (tclk *. 1e12)
    (Format.asprintf "%a" Yield.pp y);
  Printf.printf "Clock needed for 99%% yield: %.2f ps\n"
    (Yield.required_period y ~target_yield:0.99 *. 1e12);
  Printf.printf
    "\nOnce extracted, the per-seed models answer any path, input slew or\n\
     load without further simulation; the MC reference pays one full\n\
     transient per (path, seed).\n"
