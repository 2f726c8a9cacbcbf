(* Tests for the SSTA consumer layer: chains (transistor-level ground
   truth), oracles, chain paths timed as graphs and the timing DAG. *)

module Tech = Slc_device.Tech
module Process = Slc_device.Process
open Slc_cell
open Slc_core
open Slc_ssta

let tech = Tech.n14

let vdd = 0.8

let sin = 5e-12

let small_chain () =
  Chain.make tech [ Chain.stage Cells.inv "A"; Chain.stage Cells.nand2 "A" ]

let five_chain () =
  Chain.make tech
    [
      Chain.stage Cells.inv "A";
      Chain.stage ~wire_cap:1e-15 Cells.nand2 "A";
      Chain.stage Cells.nor2 "B";
      Chain.stage Cells.inv "A";
      Chain.stage Cells.aoi21 "A";
    ]

let tiny_prior =
  lazy
    (Prior.learn_pair ~cells:[ Cells.inv ] ~grid_levels:[| 2; 2; 2 |]
       ~historical:[ Tech.n20; Tech.n28 ] ())

(* ------------------------------------------------------------------ *)
(* Chain *)

let test_chain_validation () =
  Alcotest.check_raises "empty" (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Chain.make" "empty chain"))
    (fun () -> ignore (Chain.make tech []));
  Alcotest.check_raises "bad pin"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Chain.make" "cell INV has no pin Z")) (fun () ->
      ignore (Chain.make tech [ Chain.stage Cells.inv "Z" ]))

let test_chain_arcs_alternate () =
  let ch = five_chain () in
  let dirs =
    List.map (fun (a : Arc.t) -> a.Arc.out_dir) (Chain.arcs_of ch ~in_rises:true)
  in
  Alcotest.(check bool) "alternating" true
    (dirs = [ Arc.Fall; Arc.Rise; Arc.Fall; Arc.Rise; Arc.Fall ]);
  let dirs2 =
    List.map (fun (a : Arc.t) -> a.Arc.out_dir) (Chain.arcs_of ch ~in_rises:false)
  in
  Alcotest.(check bool) "opposite start" true
    (List.hd dirs2 = Arc.Rise)

let test_chain_simulation_telescopes () =
  let ch = five_chain () in
  let r = Chain.simulate ch ~sin ~vdd ~in_rises:true in
  let sum = Array.fold_left ( +. ) 0.0 r.Chain.stage_delays in
  Alcotest.(check (float 1e-15)) "stage delays telescope" r.Chain.total_delay
    sum;
  Alcotest.(check bool) "positive total" true (r.Chain.total_delay > 0.0);
  Alcotest.(check int) "five stages" 5 (Array.length r.Chain.stage_delays)

let test_chain_longer_is_slower () =
  let d2 =
    (Chain.simulate (small_chain ()) ~sin ~vdd ~in_rises:true).Chain.total_delay
  in
  let d5 =
    (Chain.simulate (five_chain ()) ~sin ~vdd ~in_rises:true).Chain.total_delay
  in
  Alcotest.(check bool) "5 stages slower than 2" true (d5 > d2)

let test_chain_seed_sensitivity () =
  let ch = small_chain () in
  let rng = Slc_prob.Rng.create 4 in
  let seed = Process.sample rng tech 0 in
  let a = (Chain.simulate ch ~sin ~vdd ~in_rises:true).Chain.total_delay in
  let b = (Chain.simulate ~seed ch ~sin ~vdd ~in_rises:true).Chain.total_delay in
  Alcotest.(check bool) "seed moves delay" true (Float.abs (a -. b) > 1e-16)

(* ------------------------------------------------------------------ *)
(* Oracle *)

let test_oracle_simulator_matches_harness () =
  let oracle = Oracle.of_simulator tech in
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let p = { Harness.sin; cload = 2e-15; vdd } in
  let d, s = oracle.Oracle.query arc p in
  let m = Harness.simulate tech arc p in
  Alcotest.(check (float 1e-16)) "delay" m.Harness.td d;
  Alcotest.(check (float 1e-16)) "slew" m.Harness.sout s

let test_oracle_library () =
  let lib = Library.characterize ~cells:[ Cells.inv ] tech ~levels:[| 2; 2; 2 |] in
  let oracle = Oracle.of_library lib in
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Rise in
  let d, s = oracle.Oracle.query arc { Harness.sin; cload = 2e-15; vdd } in
  Alcotest.(check bool) "positive" true (d > 0.0 && s > 0.0);
  (* Tables are resolved once per arc; answers stay bitwise the
     library's own lookups, for a separately found copy of the arc too. *)
  let again = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Rise in
  List.iter
    (fun cload ->
      let p = { Harness.sin; cload; vdd } in
      let d, s = oracle.Oracle.query again p in
      Alcotest.(check bool) "bitwise Library.delay/slew" true
        (Int64.bits_of_float d = Int64.bits_of_float (Library.delay lib arc p)
        && Int64.bits_of_float s = Int64.bits_of_float (Library.slew lib arc p)))
    [ 0.0; 2e-15; 9e-15 ];
  let missing = Arc.find Cells.nor2 ~pin:"A" ~out_dir:Arc.Rise in
  Alcotest.check_raises "missing arc" Not_found (fun () ->
      ignore (oracle.Oracle.query missing { Harness.sin; cload = 2e-15; vdd }))

let test_oracle_memoizes () =
  let prior = Lazy.force tiny_prior in
  Harness.reset_sim_count ();
  let oracle = Oracle.bayes_bank ~prior tech ~k:2 in
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let p = { Harness.sin; cload = 2e-15; vdd } in
  ignore (oracle.Oracle.query arc p);
  let after_first = Harness.sim_count () in
  ignore (oracle.Oracle.query arc { p with Harness.cload = 4e-15 });
  Alcotest.(check int) "no extra sims on reuse" after_first (Harness.sim_count ());
  (* k = 2 fitting simulations, plus possibly a window-retry re-run. *)
  Alcotest.(check bool) "about k sims for first use" true
    (after_first >= 2 && after_first <= 8)

(* Trained predictors are cached process-wide: a REBUILT bank over the
   same prior object answers the same arc with zero new simulations.
   (Must run after [test_oracle_memoizes], which pays for the training.) *)
let test_oracle_bank_cross_instance_cache () =
  let prior = Lazy.force tiny_prior in
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let p = { Harness.sin; cload = 2e-15; vdd } in
  let first = Oracle.bayes_bank ~prior tech ~k:2 in
  let d0, s0 = first.Oracle.query arc p in
  Harness.reset_sim_count ();
  let rebuilt = Oracle.bayes_bank ~prior tech ~k:2 in
  let d1, s1 = rebuilt.Oracle.query arc p in
  Alcotest.(check int) "rebuilt bank trains nothing" 0 (Harness.sim_count ());
  Alcotest.(check (float 0.0)) "same delay" d0 d1;
  Alcotest.(check (float 0.0)) "same slew" s0 s1

let counting_oracle () =
  let count = ref 0 in
  let base = Oracle.of_simulator tech in
  ( {
      base with
      Oracle.query =
        (fun arc p ->
          incr count;
          base.Oracle.query arc p);
    },
    count )

let test_oracle_query_cache () =
  let oracle, count = counting_oracle () in
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let p = { Harness.sin; cload = 2e-15; vdd } in
  let c = Oracle.make_cache () in
  let wrapped = Oracle.cached c oracle in
  let d0, s0 = wrapped.Oracle.query arc p in
  let d1, s1 = wrapped.Oracle.query arc p in
  Alcotest.(check int) "one underlying query" 1 !count;
  Alcotest.(check int) "one entry" 1 (Oracle.cache_size c);
  Alcotest.(check (float 0.0)) "exact hit delay" d0 d1;
  Alcotest.(check (float 0.0)) "exact hit slew" s0 s1;
  (* Exact cache: the answer is bitwise the uncached oracle's. *)
  let du, su = Oracle.of_simulator tech |> fun o -> o.Oracle.query arc p in
  Alcotest.(check bool) "bitwise vs uncached" true
    (Int64.bits_of_float d0 = Int64.bits_of_float du
    && Int64.bits_of_float s0 = Int64.bits_of_float su)

(* The exact cache is bitwise for the production oracles too: an NLDM
   table and a trained bank, over a sweep with signed zeros and two
   supplies, answer through [Oracle.cached] bit for bit as bare, and
   every distinct key (by bits) is stored once. *)
let test_cached_production_oracles_bitwise () =
  let lib =
    Library.characterize ~cells:[ Cells.inv ] tech ~levels:[| 2; 2; 2 |]
  in
  let bank = Oracle.bayes_bank ~prior:(Lazy.force tiny_prior) tech ~k:2 in
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let points =
    List.concat_map
      (fun sin ->
        List.concat_map
          (fun cload ->
            List.map
              (fun vdd -> { Harness.sin; cload; vdd })
              [ vdd; 0.6; vdd ])
          [ -0.0; 0.0; 2e-15; 9e-15 ])
      [ -0.0; 0.0; sin; 3.0 *. sin ]
  in
  let bits (d, s) = (Int64.bits_of_float d, Int64.bits_of_float s) in
  List.iter
    (fun (oracle : Oracle.t) ->
      let c = Oracle.make_cache () in
      let wrapped = Oracle.cached c oracle in
      List.iter
        (fun p ->
          if bits (wrapped.Oracle.query arc p) <> bits (oracle.Oracle.query arc p)
          then
            Alcotest.failf "%s: cached answer differs at (%h, %h, %h)"
              oracle.Oracle.label p.Harness.sin p.Harness.cload p.Harness.vdd)
        (points @ points);
      Alcotest.(check int) (oracle.Oracle.label ^ ": one entry per key") 32
        (Oracle.cache_size c))
    [ Oracle.of_library lib; bank ]

(* Regression for the per-arc memo data race: every predictor-backed
   oracle memoizes per arc in one table, and concurrent callers (the
   characterization server's connection threads) query it at once.
   The unguarded Hashtbl this memo used to be is a racing write TSan
   flags; hammer a cold memo from a deliberately oversubscribed
   parallel map and check the published answers are the
   deterministic build values, that at least one build ran per arc, and
   that the memo really memoizes once warm (concurrent-miss losers are
   allowed — first publication wins — but a warm table must not build
   again). *)
let test_oracle_memo_concurrent_miss () =
  let builds = Atomic.make 0 in
  let oracle =
    Oracle.of_predictors ~label:"const" (fun arc ->
        Atomic.incr builds;
        (* Widen the miss window so concurrent first queries overlap
           inside the build, not just around it. *)
        let spin = ref 0 in
        for _ = 1 to 50_000 do
          incr spin
        done;
        ignore (Sys.opaque_identity !spin);
        let base = float_of_int (String.length (Arc.name arc)) in
        {
          Char_flow.label = "const";
          train_cost = 0;
          model = Char_flow.Opaque;
          predict_td = (fun p -> base +. p.Harness.sin);
          predict_sout = (fun p -> base +. p.Harness.cload);
        })
  in
  let arcs =
    [|
      Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall;
      Arc.find Cells.nand2 ~pin:"A" ~out_dir:Arc.Fall;
      Arc.find Cells.nor2 ~pin:"B" ~out_dir:Arc.Fall;
      Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Rise;
    |]
  in
  let p = { Harness.sin; cload = 2e-15; vdd } in
  let queries = Array.init 64 (fun i -> arcs.(i mod Array.length arcs)) in
  let got =
    Slc_num.Parallel.map ~domains:4 ~chunk:1
      (fun a -> oracle.Oracle.query a p)
      queries
  in
  Array.iteri
    (fun i a ->
      let td, so = got.(i) in
      let base = float_of_int (String.length (Arc.name a)) in
      Alcotest.(check (float 0.0)) "td is the built value" (base +. sin) td;
      Alcotest.(check (float 0.0)) "sout is the built value" (base +. 2e-15) so)
    queries;
  let raced = Atomic.get builds in
  Alcotest.(check bool)
    (Printf.sprintf "each arc built at least once (%d builds)" raced)
    true
    (raced >= Array.length arcs);
  (* Warm memo: re-querying every arc must not build again. *)
  Array.iter (fun a -> ignore (oracle.Oracle.query a p)) arcs;
  Alcotest.(check int) "warm memo builds nothing" raced (Atomic.get builds)

(* ------------------------------------------------------------------ *)
(* Path: a chain timed as a graph ({!Sdag.of_chain}) *)

(* The chain's graph with one edge launched at its input; the side-pin
   inputs never arrive. *)
let chain_dag ch ~in_rises =
  let dag, chain_in, chain_out = Sdag.of_chain ch ~vdd in
  let input_arrivals name =
    if String.equal name (Sdag.net_name dag chain_in) then
      Sdag.input_edge ~at:0.0 ~slew:sin ~rises:in_rises
    else { Sdag.rise = None; fall = None }
  in
  (dag, chain_out, input_arrivals)

(* The one edge that reaches the chain output. *)
let chain_arrival oracle ch ~in_rises =
  let dag, chain_out, input_arrivals = chain_dag ch ~in_rises in
  match Sdag.analyze dag oracle ~input_arrivals chain_out with
  | { Sdag.rise = Some e; fall = None } | { Sdag.rise = None; fall = Some e } ->
    e
  | _ -> Alcotest.fail "expected exactly one output edge"

let test_path_matches_chain_with_simulator_oracle () =
  let ch = five_chain () in
  let truth = Chain.simulate ch ~sin ~vdd ~in_rises:true in
  let t = chain_arrival (Oracle.of_simulator tech) ch ~in_rises:true in
  let rel =
    Float.abs (t.Sdag.at -. truth.Chain.total_delay) /. truth.Chain.total_delay
  in
  Alcotest.(check bool)
    (Printf.sprintf "path vs chain within 8%% (got %.1f%%)" (100.0 *. rel))
    true (rel < 0.08)

let test_path_stage_structure () =
  let ch = five_chain () in
  let dag, chain_out, input_arrivals = chain_dag ch ~in_rises:true in
  let k = Sdag.compile dag in
  Alcotest.(check int) "five stages" 5 (Sdag.compiled_gates k);
  Alcotest.(check (array int)) "one stage per level" [| 1; 1; 1; 1; 1 |]
    (Sdag.level_widths k);
  Alcotest.(check (float 1e-18)) "final load" 2e-15 (Sdag.net_cap dag chain_out);
  (* Five inverting stages: a rising input arrives as a falling output,
     carrying the last stage's output slew. *)
  let arr = Sdag.analyze dag (Oracle.of_simulator tech) ~input_arrivals chain_out in
  Alcotest.(check bool) "no rising output" true (arr.Sdag.rise = None);
  match arr.Sdag.fall with
  | Some e -> Alcotest.(check bool) "positive out slew" true (e.Sdag.slew > 0.0)
  | None -> Alcotest.fail "expected a falling output"

let test_path_statistical_shapes () =
  let ch = small_chain () in
  let rng = Slc_prob.Rng.create 21 in
  let seeds = Process.sample_batch rng tech 5 in
  let population arc =
    Statistical.extract_population
      ~method_:(Statistical.Bayes (Lazy.force tiny_prior))
      ~tech ~arc ~seeds ~budget:2 ()
  in
  let dag, chain_out, input_arrivals = chain_dag ch ~in_rises:true in
  let samples =
    (Yield.of_dag ~population ~seeds ~clock_period:1e-9 dag ~input_arrivals
       ~outputs:[ chain_out ])
      .Yield.delays
  in
  Alcotest.(check int) "one sample per seed" 5 (Array.length samples);
  Array.iter
    (fun s -> Alcotest.(check bool) "positive" true (s > 0.0))
    samples;
  (* Not all identical: process variation must show. *)
  let distinct = Array.exists (fun s -> s <> samples.(0)) samples in
  Alcotest.(check bool) "seeds differ" true distinct

let test_yield_of_dag () =
  let rng = Slc_prob.Rng.create 41 in
  let seeds = Process.sample_batch rng tech 6 in
  let population arc =
    Statistical.extract_population
      ~method_:(Statistical.Bayes (Lazy.force tiny_prior))
      ~tech ~arc ~seeds ~budget:2 ()
  in
  let dag = Sdag.create tech ~vdd in
  let x = Sdag.input dag "x" in
  let n1 = Sdag.gate dag Cells.inv ~pins:[ ("A", x) ] "n1" in
  let out = Sdag.gate dag Cells.nand2 ~pins:[ ("A", n1); ("B", x) ] "out" in
  Sdag.set_load dag out 2e-15;
  let input_arrivals _ = Sdag.input_edge ~at:0.0 ~slew:sin ~rises:true in
  let r =
    Yield.of_dag ~population ~seeds ~clock_period:1e-9 dag ~input_arrivals
      ~outputs:[ out ]
  in
  Alcotest.(check int) "per-seed delays" 6 (Array.length r.Yield.delays);
  Alcotest.(check (float 1e-9)) "loose clock passes" 1.0 r.Yield.yield;
  Array.iter
    (fun d -> Alcotest.(check bool) "positive" true (d > 0.0))
    r.Yield.delays

let test_yield_of_dag_two_outputs () =
  (* One forward pass per seed serves every output: the per-seed worst
     over two outputs is the max of the single-output runs, bitwise. *)
  let rng = Slc_prob.Rng.create 43 in
  let seeds = Process.sample_batch rng tech 4 in
  let pops = Hashtbl.create 4 in
  let population arc =
    let key = Arc.name arc in
    match Hashtbl.find_opt pops key with
    | Some p -> p
    | None ->
      let p =
        Statistical.extract_population
          ~method_:(Statistical.Bayes (Lazy.force tiny_prior))
          ~tech ~arc ~seeds ~budget:2 ()
      in
      Hashtbl.add pops key p;
      p
  in
  let dag = Sdag.create tech ~vdd in
  let x = Sdag.input dag "x" in
  let n1 = Sdag.gate dag Cells.inv ~pins:[ ("A", x) ] "n1" in
  let o1 = Sdag.gate dag Cells.nand2 ~pins:[ ("A", n1); ("B", x) ] "o1" in
  let o2 = Sdag.gate dag Cells.inv ~pins:[ ("A", n1) ] "o2" in
  Sdag.set_load dag o1 2e-15;
  Sdag.set_load dag o2 1e-15;
  let input_arrivals _ = Sdag.input_edge ~at:0.0 ~slew:sin ~rises:true in
  let delays outputs =
    (Yield.of_dag ~population ~seeds ~clock_period:1e-9 dag ~input_arrivals
       ~outputs)
      .Yield.delays
  in
  let d1 = delays [ o1 ] and d2 = delays [ o2 ] in
  Alcotest.(check bool) "outputs differ" true (d1 <> d2);
  List.iter
    (fun outputs ->
      Array.iteri
        (fun i d ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: worst = max of single outputs" i)
            true
            (Int64.bits_of_float d
            = Int64.bits_of_float (Float.max d1.(i) d2.(i))))
        (delays outputs))
    [ [ o1; o2 ]; [ o2; o1 ] ]

(* ------------------------------------------------------------------ *)
(* Sdag *)

let simple_dag () =
  let dag = Sdag.create tech ~vdd in
  let a = Sdag.input dag "a" in
  let b = Sdag.input dag "b" in
  let n1 = Sdag.gate dag Cells.nand2 ~pins:[ ("A", a); ("B", b) ] "n1" in
  let n2 = Sdag.gate dag Cells.inv ~pins:[ ("A", a) ] "n2" in
  let out = Sdag.gate dag Cells.nor2 ~pins:[ ("A", n1); ("B", n2) ] "out" in
  Sdag.set_load dag out 2e-15;
  (dag, a, b, out)

let test_dag_pin_checking () =
  let dag = Sdag.create tech ~vdd in
  let a = Sdag.input dag "a" in
  Alcotest.check_raises "missing pin"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Sdag.gate" "NAND2 needs pins {A,B}, got {A}")) (fun () ->
      ignore (Sdag.gate dag Cells.nand2 ~pins:[ ("A", a) ] "bad"))

(* Every pin multiset other than the cell's own is refused, with both
   sides of the message sorted: a duplicated pin, a missing one, an
   unknown one and an extra one. *)
let test_dag_pin_check_messages () =
  let dag = Sdag.create tech ~vdd in
  let a = Sdag.input dag "a" in
  let refused what pins detail =
    Alcotest.check_raises what
      (Slc_obs.Slc_error.Invalid_input
         (Slc_obs.Slc_error.invalid ~site:"Sdag.gate" detail))
      (fun () -> ignore (Sdag.gate dag Cells.nand2 ~pins "bad"))
  in
  refused "duplicated pin" [ ("A", a); ("A", a) ] "NAND2 needs pins {A,B}, got {A,A}";
  refused "missing pin" [ ("B", a) ] "NAND2 needs pins {A,B}, got {B}";
  refused "no pins" [] "NAND2 needs pins {A,B}, got {}";
  refused "unknown pin" [ ("C", a); ("A", a) ] "NAND2 needs pins {A,B}, got {A,C}";
  refused "extra pin" [ ("B", a); ("C", a); ("A", a) ]
    "NAND2 needs pins {A,B}, got {A,B,C}";
  Alcotest.check_raises "single-input cell, duplicated pin"
    (Slc_obs.Slc_error.Invalid_input
       (Slc_obs.Slc_error.invalid ~site:"Sdag.gate" "INV needs pins {A}, got {A,A}"))
    (fun () -> ignore (Sdag.gate dag Cells.inv ~pins:[ ("A", a); ("A", a) ] "bad"));
  (* A refused gate adds nothing: the next net is still the second. *)
  let n = Sdag.gate dag Cells.inv ~pins:[ ("A", a) ] "ok" in
  Alcotest.(check string) "builder unchanged by refusals" "ok" (Sdag.net_name dag n)

(* Pins may be listed in any order.  A NAND2 given [B; A] is the NAND2
   given [A; B]: the same fanout caps on its drivers and, through a
   closed-form oracle whose delay is the load it is queried at, the
   same compiled loads, bit for bit. *)
let test_dag_pin_order_free () =
  let build order =
    let dag = Sdag.create tech ~vdd in
    let a = Sdag.input dag "a" and b = Sdag.input dag "b" in
    let pins = List.map (fun p -> if p = "A" then ("A", a) else ("B", b)) order in
    let n = Sdag.gate dag Cells.nand2 ~pins ~wire_cap:0.3e-15 "n" in
    (* [a] also drives the inverter, so its cap sums two pins. *)
    let i = Sdag.gate dag Cells.inv ~pins:[ ("A", a) ] "i" in
    let o = Sdag.gate dag Cells.nor2 ~pins:[ ("B", i); ("A", n) ] "o" in
    Sdag.set_load dag o 1e-15;
    (dag, [ a; b; n; i; o ], o)
  in
  let load_oracle =
    {
      Oracle.label = "load";
      query = (fun _ (p : Harness.point) -> (p.Harness.cload, p.Harness.sin));
    }
  in
  let observe (dag, nets, o) =
    let caps = List.map (fun n -> Int64.bits_of_float (Sdag.net_cap dag n)) nets in
    let rows =
      Sdag.slack_report_compiled (Sdag.compile dag) load_oracle
        ~input_arrivals:(fun _ -> Generate.both_edges ~at:0.0 ~slew:sin)
        ~outputs:[ (o, 1e-9) ]
    in
    ( caps,
      List.map
        (fun (r : Sdag.slack_row) ->
          (r.Sdag.net_label, Int64.bits_of_float r.Sdag.arrival_time,
           Int64.bits_of_float r.Sdag.slack))
        rows )
  in
  let ab = observe (build [ "A"; "B" ]) and ba = observe (build [ "B"; "A" ]) in
  Alcotest.(check (list int64)) "net caps" (fst ab) (fst ba);
  Alcotest.(check bool) "compiled loads time bitwise alike" true (snd ab = snd ba);
  Alcotest.(check int) "every net has a row" 5 (List.length (snd ab))

(* Explicit loads on one net sum in call order onto the gate's wire
   cap — [set_load l] stores [l +. previous] — and the fanout pin caps
   are added after them. *)
let test_dag_loads_sum () =
  let dag = Sdag.create tech ~vdd in
  let a = Sdag.input dag "a" in
  (* Two loads of 0.6 ulp of the wire cap: each addition rounds up by
     one ulp, so the sum is two ulps above [w], while adding the loads
     together first would give one, and dropping them none. *)
  let w = 1e-15 in
  let l = 0.6 *. (Float.succ w -. w) in
  let n = Sdag.gate dag Cells.inv ~pins:[ ("A", a) ] ~wire_cap:w "n" in
  Sdag.set_load dag n l;
  Sdag.set_load dag n l;
  let expected = l +. (l +. w) in
  Alcotest.(check bool) "the test separates associations" true
    (expected = Float.succ (Float.succ w) && (l +. l) +. w = Float.succ w);
  Alcotest.(check int64) "wire cap plus two loads, bitwise"
    (Int64.bits_of_float (expected +. 0.0))
    (Int64.bits_of_float (Sdag.net_cap dag n));
  (* With a fanout pin on the net, its cap comes after the loads. *)
  let w = 0.1e-15 and l1 = 0.2e-15 and l2 = 0.3e-15 in
  let m = Sdag.gate dag Cells.inv ~pins:[ ("A", a) ] ~wire_cap:w "m" in
  ignore (Sdag.gate dag Cells.inv ~pins:[ ("A", m) ] "k");
  Sdag.set_load dag m l1;
  Sdag.set_load dag m l2;
  let pin = Equivalent.input_cap tech Cells.inv ~pin:"A" in
  Alcotest.(check int64) "loads, then the fanout cap, bitwise"
    (Int64.bits_of_float ((l2 +. (l1 +. w)) +. (0.0 +. pin)))
    (Int64.bits_of_float (Sdag.net_cap dag m));
  (* An input given one load, and a gate output with none. *)
  Sdag.set_load dag a 2e-15;
  Alcotest.(check int64) "input load"
    (Int64.bits_of_float (2e-15 +. ((0.0 +. pin) +. pin)))
    (Int64.bits_of_float (Sdag.net_cap dag a));
  let z = Sdag.gate dag Cells.inv ~pins:[ ("A", a) ] "z" in
  Alcotest.(check int64) "no load" 0L (Int64.bits_of_float (Sdag.net_cap dag z))

let test_dag_single_edge_propagation () =
  let dag, _, _, out = simple_dag () in
  let oracle = Oracle.of_simulator tech in
  (* Only input a rises at t=0; b stays put (no arrival). *)
  let input_arrivals name =
    if String.equal name "a" then Sdag.input_edge ~at:0.0 ~slew:sin ~rises:true
    else { Sdag.rise = None; fall = None }
  in
  let arr = Sdag.analyze dag oracle ~input_arrivals out in
  (* a rises -> n1 falls and n2 falls -> out rises.  No out fall. *)
  Alcotest.(check bool) "rise arrival exists" true (Sdag.at_edge arr ~rises:true <> None);
  Alcotest.(check bool) "no fall arrival" true (Sdag.at_edge arr ~rises:false = None);
  match Sdag.at_edge arr ~rises:true with
  | Some e ->
    Alcotest.(check bool) "positive time" true (e.Sdag.at > 0.0);
    Alcotest.(check bool) "positive slew" true (e.Sdag.slew > 0.0)
  | None -> Alcotest.fail "expected arrival"

let test_dag_max_semantics () =
  (* Delaying input b must not make the output earlier, and a large
     enough b delay must dominate the arrival. *)
  let oracle = Oracle.of_simulator tech in
  let arrival_with b_at =
    let dag, _, _, out = simple_dag () in
    let input_arrivals name =
      if String.equal name "a" then Sdag.input_edge ~at:0.0 ~slew:sin ~rises:true
      else Sdag.input_edge ~at:b_at ~slew:sin ~rises:true
    in
    match Sdag.at_edge (Sdag.analyze dag oracle ~input_arrivals out) ~rises:true with
    | Some e -> e.Sdag.at
    | None -> Alcotest.fail "no arrival"
  in
  let t0 = arrival_with 0.0 in
  let t_late = arrival_with 50e-12 in
  Alcotest.(check bool) "monotone in input arrival" true (t_late >= t0);
  Alcotest.(check bool) "late input dominates" true (t_late >= 50e-12)

(* Reference for {!Sdag.of_chain}: walk the chain stage by stage as the
   transistor-level chain is wired.  Stage i drives its wire cap plus
   stage i+1's switching pin (the last stage: the final load), and its
   output slew is stage i+1's input slew. *)
let walk_chain (oracle : Oracle.t) (ch : Chain.t) ~in_rises =
  let rec loads = function
    | [] -> []
    | [ (last : Chain.stage) ] -> [ last.Chain.wire_cap +. ch.Chain.final_load ]
    | (s : Chain.stage) :: (next :: _ as rest) ->
      (s.Chain.wire_cap
      +. Equivalent.input_cap tech next.Chain.cell ~pin:next.Chain.pin)
      :: loads rest
  in
  List.fold_left2
    (fun (at, slew) arc cload ->
      let d, s = oracle.Oracle.query arc { Harness.sin = slew; cload; vdd } in
      (at +. d, s))
    (0.0, sin)
    (Chain.arcs_of ch ~in_rises)
    (loads ch.Chain.stages)

let test_dag_chain_equals_path () =
  (* The chain's graph times the path bitwise like the stage walk, on
     both input edges, with the simulator and with a closed-form
     oracle (which would expose a load or slew wired to the wrong
     stage). *)
  let closed_form =
    {
      Oracle.label = "closed-form";
      query =
        (fun arc p ->
          let a = float_of_int (String.length (Arc.name arc)) in
          ( (a *. 1e-12) +. (0.3 *. p.Harness.sin) +. (4e3 *. p.Harness.cload),
            (0.5 *. p.Harness.sin) +. (7e3 *. p.Harness.cload) ));
    }
  in
  let ch = five_chain () in
  List.iter
    (fun (oracle : Oracle.t) ->
      List.iter
        (fun in_rises ->
          let at, slew = walk_chain oracle ch ~in_rises in
          let e = chain_arrival oracle ch ~in_rises in
          let what =
            Printf.sprintf "%s, input %s" oracle.Oracle.label
              (if in_rises then "rise" else "fall")
          in
          Alcotest.(check bool) (what ^ ": delay bitwise") true
            (Int64.bits_of_float e.Sdag.at = Int64.bits_of_float at);
          Alcotest.(check bool) (what ^ ": slew bitwise") true
            (Int64.bits_of_float e.Sdag.slew = Int64.bits_of_float slew))
        [ true; false ])
    [ Oracle.of_simulator tech; closed_form ]

let test_dag_slack_report () =
  let oracle = Oracle.of_simulator tech in
  let dag = Sdag.create tech ~vdd in
  let x = Sdag.input dag "x" in
  let m1 = Sdag.gate dag Cells.inv ~pins:[ ("A", x) ] "m1" in
  let m2 = Sdag.gate dag Cells.inv ~pins:[ ("A", m1) ] "m2" in
  Sdag.set_load dag m2 2e-15;
  let input_arrivals _ = Sdag.input_edge ~at:0.0 ~slew:sin ~rises:true in
  let arr =
    match Sdag.at_edge (Sdag.analyze dag oracle ~input_arrivals m2) ~rises:true with
    | Some e -> e.Sdag.at
    | None -> Alcotest.fail "no arrival"
  in
  let required = arr +. 5e-12 in
  let rows =
    Sdag.slack_report dag oracle ~input_arrivals ~outputs:[ (m2, required) ]
  in
  Alcotest.(check int) "three nets with arrivals" 3 (List.length rows);
  (* Output slack is exactly the margin we left. *)
  let out_row = List.find (fun r -> r.Sdag.net_label = "m2") rows in
  Alcotest.(check (float 1e-15)) "output slack" 5e-12 out_row.Sdag.slack;
  (* On a single path every net shares the same slack. *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Sdag.net_label ^ " slack matches")
        true
        (Float.abs (r.Sdag.slack -. 5e-12) < 1e-15))
    rows;
  (* Tight requirement: negative slack, most critical first. *)
  let rows2 =
    Sdag.slack_report dag oracle ~input_arrivals ~outputs:[ (m2, arr -. 1e-12) ]
  in
  (match rows2 with
  | first :: _ ->
    Alcotest.(check bool) "violation detected" true (first.Sdag.slack < 0.0)
  | [] -> Alcotest.fail "empty report");
  Alcotest.(check bool) "sorted by slack" true
    (let slacks = List.map (fun r -> r.Sdag.slack) rows2 in
     List.sort compare slacks = slacks)

let test_dag_net_names () =
  let dag, a, _, out = simple_dag () in
  Alcotest.(check string) "input name" "a" (Sdag.net_name dag a);
  Alcotest.(check string) "gate name" "out" (Sdag.net_name dag out)

let test_path_falling_input () =
  (* The other input polarity also matches chain truth. *)
  let ch = small_chain () in
  let truth = Chain.simulate ch ~sin ~vdd ~in_rises:false in
  let t = chain_arrival (Oracle.of_simulator tech) ch ~in_rises:false in
  let rel =
    Float.abs (t.Sdag.at -. truth.Chain.total_delay) /. truth.Chain.total_delay
  in
  Alcotest.(check bool)
    (Printf.sprintf "falling-input path within 10%% (got %.1f%%)"
       (100.0 *. rel))
    true (rel < 0.10)

let test_bayes_library_oracle_on_path () =
  (* A per-arc Bayesian characterization plugs into path timing. *)
  let oracle = Oracle.bayes_bank ~prior:(Lazy.force tiny_prior) tech ~k:3 in
  let ch = small_chain () in
  let truth = Chain.simulate ch ~sin ~vdd ~in_rises:true in
  let t = chain_arrival oracle ch ~in_rises:true in
  let rel =
    Float.abs (t.Sdag.at -. truth.Chain.total_delay) /. truth.Chain.total_delay
  in
  Alcotest.(check bool)
    (Printf.sprintf "library-backed path within 12%% (got %.1f%%)"
       (100.0 *. rel))
    true (rel < 0.12)

let test_dag_fanout_adds_load () =
  (* Adding a fanout gate to a net must delay arrivals through it. *)
  let oracle = Oracle.of_simulator tech in
  let arrival_with_fanout extra =
    let dag = Sdag.create tech ~vdd in
    let x = Sdag.input dag "x" in
    let n1 = Sdag.gate dag Cells.inv ~pins:[ ("A", x) ] "n1" in
    let out = Sdag.gate dag Cells.inv ~pins:[ ("A", n1) ] "out" in
    if extra then
      ignore (Sdag.gate dag Cells.nand4 ~pins:[ ("A", n1); ("B", n1); ("C", n1); ("D", n1) ] "sink");
    Sdag.set_load dag out 1e-15;
    let input_arrivals _ = Sdag.input_edge ~at:0.0 ~slew:sin ~rises:true in
    match Sdag.at_edge (Sdag.analyze dag oracle ~input_arrivals out) ~rises:true with
    | Some e -> e.Sdag.at
    | None -> Alcotest.fail "no arrival"
  in
  let bare = arrival_with_fanout false in
  let loaded = arrival_with_fanout true in
  Alcotest.(check bool)
    (Printf.sprintf "fanout slows the net (%.2f -> %.2f ps)" (bare *. 1e12)
       (loaded *. 1e12))
    true
    (loaded > bare +. 1e-13)

let test_dag_persistent_cache () =
  (* A caller-owned exact cache around the oracle changes no results
     and makes a repeated analysis free of oracle queries.  A cache
     handed to the pass itself is ignored: the pass queries directly
     and leaves it empty. *)
  let oracle, count = counting_oracle () in
  let dag, _, _, out = simple_dag () in
  let input_arrivals _ = Sdag.input_edge ~at:0.0 ~slew:sin ~rises:true in
  let plain = Sdag.analyze dag oracle ~input_arrivals out in
  let after_plain = !count in
  let ignored = Oracle.make_cache () in
  let direct = Sdag.analyze ~cache:ignored dag oracle ~input_arrivals out in
  Alcotest.(check int) "a pass given ~cache queries directly" after_plain
    (!count - after_plain);
  Alcotest.(check int) "and leaves it empty" 0 (Oracle.cache_size ignored);
  let c = Oracle.make_cache () in
  let cached = Oracle.cached c oracle in
  let before_cached = !count in
  let cached1 = Sdag.analyze dag cached ~input_arrivals out in
  let after_first_cached = !count in
  let cached2 = Sdag.analyze dag cached ~input_arrivals out in
  Alcotest.(check int) "second cached pass queries nothing" after_first_cached
    !count;
  Alcotest.(check bool) "first cached pass queried" true
    (after_first_cached > before_cached);
  Alcotest.(check bool) "cache populated" true (Oracle.cache_size c > 0);
  let edge a =
    match Sdag.at_edge a ~rises:true with
    | Some e -> (e.Sdag.at, e.Sdag.slew)
    | None -> Alcotest.fail "no arrival"
  in
  let pt, ps = edge plain in
  let t1, s1 = edge cached1 in
  let t2, s2 = edge cached2 in
  Alcotest.(check bool) "cached bitwise equals uncached" true
    (Int64.bits_of_float pt = Int64.bits_of_float t1
    && Int64.bits_of_float ps = Int64.bits_of_float s1);
  Alcotest.(check bool) "repeat pass identical" true (t1 = t2 && s1 = s2);
  Alcotest.(check bool) "ignored cache, identical" true (edge direct = (pt, ps));
  (* Same cache drives slack_report to identical rows. *)
  let rows_plain =
    Sdag.slack_report dag oracle ~input_arrivals ~outputs:[ (out, 1e-10) ]
  in
  let rows_cached =
    Sdag.slack_report dag cached ~input_arrivals ~outputs:[ (out, 1e-10) ]
  in
  Alcotest.(check bool) "slack rows identical" true (rows_plain = rows_cached)

(* ------------------------------------------------------------------ *)
(* Yield *)

let test_yield_of_delays () =
  let delays = [| 1e-11; 2e-11; 3e-11; 4e-11 |] in
  let r = Yield.of_delays ~clock_period:2.5e-11 delays in
  Alcotest.(check int) "passes" 2 r.Yield.n_pass;
  Alcotest.(check (float 1e-9)) "yield" 0.5 r.Yield.yield;
  Alcotest.(check (float 1e-22)) "worst" 4e-11 r.Yield.worst_delay;
  (* Period for 100% yield = worst delay. *)
  Alcotest.(check (float 1e-22)) "required period" 4e-11
    (Yield.required_period r ~target_yield:1.0);
  Alcotest.(check bool) "pp renders" true
    (String.length (Format.asprintf "%a" Yield.pp r) > 20);
  Alcotest.check_raises "bad period"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Yield.of_delays" "bad period")) (fun () ->
      ignore (Yield.of_delays ~clock_period:0.0 delays))

let test_yield_of_path () =
  let ch = small_chain () in
  let rng = Slc_prob.Rng.create 31 in
  let seeds = Process.sample_batch rng tech 8 in
  let population arc =
    Statistical.extract_population
      ~method_:(Statistical.Bayes (Lazy.force tiny_prior))
      ~tech ~arc ~seeds ~budget:2 ()
  in
  (* A generous clock passes everything; a tiny one fails everything. *)
  let dag, chain_out, input_arrivals = chain_dag ch ~in_rises:true in
  let loose =
    Yield.of_dag ~population ~seeds ~clock_period:1e-9 dag ~input_arrivals
      ~outputs:[ chain_out ]
  in
  Alcotest.(check (float 1e-9)) "all pass" 1.0 loose.Yield.yield;
  let tight =
    Yield.of_delays ~clock_period:1e-13 loose.Yield.delays
  in
  Alcotest.(check (float 1e-9)) "none pass" 0.0 tight.Yield.yield;
  (* Yield is monotone in the clock period. *)
  let mid =
    Yield.of_delays ~clock_period:loose.Yield.mean_delay loose.Yield.delays
  in
  Alcotest.(check bool) "mid yield in (0,1]" true
    (mid.Yield.yield > 0.0 && mid.Yield.yield <= 1.0)

(* ------------------------------------------------------------------ *)
(* Generated designs and the compiled parallel forward pass.

   These use a pure closed-form oracle, not the simulator: the subject
   under test is graph compilation, levelized scheduling and
   determinism, and a cheap oracle keeps the parity sweeps quick enough
   for the TSan job. *)

let synthetic_oracle =
  {
    Oracle.label = "synthetic";
    query =
      (fun arc (p : Harness.point) ->
        let h = float_of_int (Hashtbl.hash (Arc.name arc) land 0xff) in
        ( 1.0e-12 +. (1.0e-14 *. h) +. (0.4 *. p.Harness.sin)
          +. (900.0 *. p.Harness.cload),
          2.0e-12 +. (0.3 *. p.Harness.sin) +. (400.0 *. p.Harness.cload) ));
  }

let design_inputs _ = Generate.both_edges ~at:0.0 ~slew:sin

let row_bits rows =
  List.map
    (fun (r : Sdag.slack_row) ->
      ( r.Sdag.net_label,
        Int64.bits_of_float r.Sdag.arrival_time,
        Int64.bits_of_float r.Sdag.required_time,
        Int64.bits_of_float r.Sdag.slack ))
    rows

let test_generate_deterministic () =
  let d1 = Generate.design tech ~vdd ~seed:11 ~gates:400 in
  let d2 = Generate.design tech ~vdd ~seed:11 ~gates:400 in
  Alcotest.(check int) "same gate count"
    (Sdag.compiled_gates d1.Generate.compiled)
    (Sdag.compiled_gates d2.Generate.compiled);
  Alcotest.(check int) "same net count"
    (Sdag.compiled_nets d1.Generate.compiled)
    (Sdag.compiled_nets d2.Generate.compiled);
  Alcotest.(check bool) "same level profile" true
    (Sdag.level_widths d1.Generate.compiled
    = Sdag.level_widths d2.Generate.compiled);
  Alcotest.(check int) "same output count"
    (Array.length d1.Generate.outputs)
    (Array.length d2.Generate.outputs);
  let report d =
    Sdag.slack_report_compiled d.Generate.compiled synthetic_oracle
      ~input_arrivals:design_inputs ~outputs:(Generate.required d 1e-9)
  in
  Alcotest.(check bool) "same seed, bitwise-identical timing" true
    (row_bits (report d1) = row_bits (report d2));
  let d3 = Generate.design tech ~vdd ~seed:12 ~gates:400 in
  Alcotest.(check bool) "different seed, different timing" true
    (row_bits (report d1) <> row_bits (report d3));
  Alcotest.check_raises "bad size"
    (Slc_obs.Slc_error.Invalid_input
       (Slc_obs.Slc_error.invalid ~site:"Generate.design" "gates must be > 0"))
    (fun () -> ignore (Generate.design tech ~vdd ~seed:1 ~gates:0))

(* Every wire-cap draw must be finite for any generator state: the
   uniform draw behind it is clamped into (0, 1], so even a (future)
   generator returning its upper endpoint cannot produce [log 0.0].
   Sweep many seeds and many draws per seed, and pin the clamp bound
   itself (the largest possible cap is [-mean * log min_float], which
   is finite). *)
let test_wire_cap_draw_finite () =
  let mean = 0.5e-15 in
  for seed = 0 to 99 do
    let r = Slc_prob.Rng.create seed in
    for _ = 1 to 1000 do
      let c = Generate.wire_cap_draw r ~mean in
      if not (Float.is_finite c && c >= 0.0) then
        Alcotest.failf "seed %d drew a non-finite/negative cap %h" seed c
    done
  done;
  Alcotest.(check bool) "clamp bound is finite" true
    (Float.is_finite (-.mean *. log Float.min_float))

(* Slack-row order, pinned as the list-based pass produced it: rows
   sort by slack, and equal slacks come out highest net index first.
   Four inverters on x and three on y see identical loads and
   requirements; y ties with the b* inverters, x does not tie with the
   a* ones. *)
let test_slack_tie_order () =
  let dag = Sdag.create tech ~vdd in
  let x = Sdag.input dag "x" in
  let y = Sdag.input dag "y" in
  let inverters src prefix n =
    List.init n (fun i ->
        Sdag.gate dag Cells.inv ~pins:[ ("A", src) ] (Printf.sprintf "%s%d" prefix i))
  in
  let a = inverters x "a" 4 in
  let b = inverters y "b" 3 in
  List.iter (fun n -> Sdag.set_load dag n 1e-15) (a @ b);
  let outputs =
    List.map (fun n -> (n, 1e-10)) a @ List.map (fun n -> (n, 2e-11)) b
  in
  let rows =
    Sdag.slack_report dag synthetic_oracle ~input_arrivals:design_inputs ~outputs
  in
  let late = 4438053597939209164L in
  let b_req = 4446738932783735957L and b_slack = 4445111041632075682L in
  let a_req = 4457293557087583675L and a_slack = 4456886584299668606L in
  let expected =
    [
      ("b2", late, b_req, b_slack);
      ("b1", late, b_req, b_slack);
      ("b0", late, b_req, b_slack);
      ("y", 0L, b_slack, b_slack);
      ("a3", late, a_req, a_slack);
      ("a2", late, a_req, a_slack);
      ("a1", late, a_req, a_slack);
      ("a0", late, a_req, a_slack);
      ("x", 0L, a_slack, a_slack);
    ]
  in
  Alcotest.(check (list (pair string (list int64))))
    "rows, bitwise, in order"
    (List.map (fun (l, a, r, s) -> (l, [ a; r; s ])) expected)
    (List.map (fun (l, a, r, s) -> (l, [ a; r; s ])) (row_bits rows))

(* An oracle answering NaN delay for one arc (NAND2 pin B, rising
   output).  A NaN candidate replaces any best arrival before it and is
   replaced by any after it (g1 and g3 take it, g5 lists pin B first
   and does not); the backward pass spreads NaN requirements to every
   driver that launched it.  Rows pinned bit for bit as the list-based
   pass produced them, NaN slacks first in descending net order. *)
let test_slack_nan_arc () =
  let nan_arc = Arc.find Cells.nand2 ~pin:"B" ~out_dir:Arc.Rise in
  let oracle =
    {
      synthetic_oracle with
      Oracle.query =
        (fun arc p ->
          let d, s = synthetic_oracle.Oracle.query arc p in
          if Arc.id arc = Arc.id nan_arc then (Float.nan, s) else (d, s));
    }
  in
  let dag = Sdag.create tech ~vdd in
  let x = Sdag.input dag "x" in
  let y = Sdag.input dag "y" in
  let g1 = Sdag.gate dag Cells.nand2 ~pins:[ ("A", x); ("B", y) ] "g1" in
  let g2 = Sdag.gate dag Cells.inv ~pins:[ ("A", g1) ] "g2" in
  let g3 = Sdag.gate dag Cells.nand2 ~pins:[ ("A", g2); ("B", x) ] "g3" in
  let g4 = Sdag.gate dag Cells.inv ~pins:[ ("A", y) ] "g4" in
  let g5 = Sdag.gate dag Cells.nand2 ~pins:[ ("B", y); ("A", x) ] "g5" in
  List.iter (fun n -> Sdag.set_load dag n 1e-15) [ g3; g4; g5 ];
  let rows =
    Sdag.slack_report dag oracle ~input_arrivals:design_inputs
      ~outputs:[ (g3, 1e-10); (g4, 1e-10); (g5, 1e-10) ]
  in
  let nan = 9221120237041090561L and req = 4457293557087583675L in
  let expected =
    [
      ("g3", nan, req, nan);
      ("g2", nan, 4456930066943548505L, nan);
      ("g1", nan, 4456599691695564219L, nan);
      ("y", 0L, nan, nan);
      ("x", 0L, nan, nan);
      ("g5", 4438202150743923410L, req, 4456877299749373966L);
      ("g4", 4438053597939209164L, req, 4456886584299668606L);
    ]
  in
  Alcotest.(check (list (pair string (list int64))))
    "rows, bitwise, in order"
    (List.map (fun (l, a, r, s) -> (l, [ a; r; s ])) expected)
    (List.map (fun (l, a, r, s) -> (l, [ a; r; s ])) (row_bits rows))

(* Row order over slacks that stress the sort: NaNs of both signs,
   [-0.0] and [0.0], both infinities, subnormals and long runs of equal
   values.  Primary inputs draw their arrival times and per-output
   required times from a palette of one to four of these values, and
   inverters hang off earlier nets.  The rows must come out as the
   reference orders them: nets in descending order, then a stable sort
   by [Float.compare] on slack. *)
let special_values =
  [|
    Float.nan; -.Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity;
    Float.succ 0.0; Float.pred 0.0; Float.pred Float.min_float;
    -.Float.min_float; 1e-9; -1e-9; 1e-300; Float.max_float;
    -.Float.max_float;
  |]

let gen_row_order_case =
  QCheck.Gen.(
    list_size (int_range 1 4) (int_bound (Array.length special_values - 1))
    >>= fun palette ->
    let value = opt (oneofl palette) in
    pair
      (list_size (int_range 1 150) (pair value value))
      (list_size (int_range 0 150) (pair nat value)))

let prop_row_order =
  QCheck.Test.make ~name:"slack rows: descending nets, stable Float.compare"
    ~count:200
    (QCheck.make gen_row_order_case)
    (fun (inputs, gates) ->
      let dag = Sdag.create tech ~vdd in
      (* Each label's arrival time, and its creation position: the
         builder numbers nets in creation order. *)
      let ats = Hashtbl.create 16 and ids = Hashtbl.create 16 in
      let outputs = ref [] in
      let add name n r =
        Hashtbl.replace ids name (Hashtbl.length ids);
        Option.iter (fun v -> outputs := (n, special_values.(v)) :: !outputs) r;
        n
      in
      let inputs = Array.of_list inputs and gates = Array.of_list gates in
      let n_inputs = Array.length inputs in
      let input_nets =
        Array.mapi
          (fun i (at, r) ->
            let name = Printf.sprintf "i%d" i in
            Hashtbl.replace ats name
              (match at with None -> 0.0 | Some v -> special_values.(v));
            add name (Sdag.input dag name) r)
          inputs
      in
      let nets =
        Array.append input_nets (Array.make (Array.length gates) input_nets.(0))
      in
      Array.iteri
        (fun i (src, r) ->
          let name = Printf.sprintf "g%d" i in
          let driver = nets.(src mod (n_inputs + i)) in
          nets.(n_inputs + i) <-
            add name (Sdag.gate dag Cells.inv ~pins:[ ("A", driver) ] name) r)
        gates;
      let input_arrivals name =
        Generate.both_edges ~at:(Hashtbl.find ats name) ~slew:sin
      in
      let rows =
        Sdag.slack_report dag synthetic_oracle ~input_arrivals ~outputs:!outputs
      in
      let id (r : Sdag.slack_row) = Hashtbl.find ids r.Sdag.net_label in
      let reference =
        List.stable_sort
          (fun (a : Sdag.slack_row) b -> Float.compare a.Sdag.slack b.Sdag.slack)
          (List.sort (fun a b -> Int.compare (id b) (id a)) rows)
      in
      List.length rows = Array.length nets
      && row_bits rows = row_bits reference
      && List.for_all
           (fun (r : Sdag.slack_row) ->
             Int64.equal
               (Int64.bits_of_float r.Sdag.slack)
               (Int64.bits_of_float (r.Sdag.required_time -. r.Sdag.arrival_time)))
           rows)

(* Two candidates that arrive at the same time: the first in pin order
   is kept (a later one replaces the best only when strictly later or
   NaN).  Delay depends only on the point, slew also on the arc, so a
   NAND2 with both pins on one net sees equal arrivals with different
   slews; swapping its pin order swaps the winner.  Pinned bit for bit
   as the list-based pass produced them. *)
let test_equal_arrivals_keep_first () =
  let oracle =
    {
      Oracle.label = "slew-by-arc";
      query =
        (fun arc (p : Harness.point) ->
          let h = float_of_int (Hashtbl.hash (Arc.name arc) land 0xff) in
          ( 1e-12 +. (0.4 *. p.Harness.sin),
            2e-12 +. (1e-14 *. h) +. (400.0 *. p.Harness.cload) ));
    }
  in
  let dag = Sdag.create tech ~vdd in
  let x = Sdag.input dag "x" in
  let ab = Sdag.gate dag Cells.nand2 ~pins:[ ("A", x); ("B", x) ] "ab" in
  let ba = Sdag.gate dag Cells.nand2 ~pins:[ ("B", x); ("A", x) ] "ba" in
  let bits net =
    let a = Sdag.analyze dag oracle ~input_arrivals:design_inputs net in
    List.map
      (fun e ->
        match e with
        | None -> []
        | Some e -> [ Int64.bits_of_float e.Sdag.at; Int64.bits_of_float e.Sdag.slew ])
      [ a.Sdag.rise; a.Sdag.fall ]
  in
  let at = 4434466073940909850L in
  Alcotest.(check (list (list int64)))
    "A first"
    [ [ at; 4435233596765266786L ]; [ at; 4435654496378623814L ] ]
    (bits ab);
  Alcotest.(check (list (list int64)))
    "B first"
    [ [ at; 4432138746667053335L ]; [ at; 4435109802761338248L ] ]
    (bits ba)

let test_compiled_structure () =
  let dag = Sdag.create tech ~vdd in
  let x = Sdag.input dag "x" in
  let m1 = Sdag.gate dag Cells.inv ~pins:[ ("A", x) ] "m1" in
  let m2 = Sdag.gate dag Cells.inv ~pins:[ ("A", m1) ] "m2" in
  let out = Sdag.gate dag Cells.nand2 ~pins:[ ("A", x); ("B", m2) ] "out" in
  Sdag.set_load dag out 2e-15;
  let k = Sdag.compile dag in
  Alcotest.(check int) "nets" 4 (Sdag.compiled_nets k);
  Alcotest.(check int) "gates" 3 (Sdag.compiled_gates k);
  (* m1 at level 1, m2 at 2, out at 3 (its B pin depends on m2). *)
  Alcotest.(check bool) "asap levels" true
    (Sdag.level_widths k = [| 1; 1; 1 |]);
  (* Incrementally accumulated net capacitance matches a direct
     per-pin summation, bitwise. *)
  let expect =
    Equivalent.input_cap tech Cells.inv ~pin:"A"
    +. Equivalent.input_cap tech Cells.nand2 ~pin:"A"
  in
  Alcotest.(check bool) "net cap bitwise" true
    (Int64.bits_of_float (Sdag.net_cap dag x) = Int64.bits_of_float expect);
  Alcotest.(check bool) "explicit load included" true
    (Sdag.net_cap dag out = 2e-15)

let test_compiled_paths_agree () =
  let d = Generate.design tech ~vdd ~seed:5 ~gates:600 in
  let outputs = Generate.required d 1e-9 in
  let report oracle =
    Sdag.slack_report_compiled d.Generate.compiled oracle
      ~input_arrivals:design_inputs ~outputs
  in
  let reference = row_bits (report synthetic_oracle) in
  (* The builder-level entry point compiles internally and agrees. *)
  let legacy =
    Sdag.slack_report d.Generate.dag synthetic_oracle
      ~input_arrivals:design_inputs ~outputs
  in
  Alcotest.(check bool) "builder path agrees" true
    (row_bits legacy = reference);
  (* A shared persistent cache changes nothing across repeated passes. *)
  let cached = Oracle.cached (Oracle.make_cache ()) synthetic_oracle in
  let warm1 = row_bits (report cached) in
  let warm2 = row_bits (report cached) in
  Alcotest.(check bool) "cached passes bitwise stable" true
    (warm1 = reference && warm2 = reference)

(* A pass queries a fresh predictor-backed oracle from one thread, so
   every arc is trained exactly once: the build is widened so that two
   first queries of one arc from different domains would overlap in
   it, and a duplicate build shows in the count. *)
let test_pass_builds_each_arc_once () =
  List.iter
    (fun seed ->
      let d = Generate.design tech ~vdd ~seed ~gates:600 in
      let builds = Atomic.make 0 in
      let oracle =
        Oracle.of_predictors ~label:"counted" (fun arc ->
            Atomic.incr builds;
            let spin = ref 0 in
            for _ = 1 to 50_000 do
              incr spin
            done;
            ignore (Sys.opaque_identity !spin);
            let answer p = synthetic_oracle.Oracle.query arc p in
            {
              Char_flow.label = "synthetic";
              train_cost = 0;
              model = Char_flow.Opaque;
              predict_td = (fun p -> fst (answer p));
              predict_sout = (fun p -> snd (answer p));
            })
      in
      let arcs = Slc_num.Memo.create () in
      let counted =
        {
          oracle with
          Oracle.query =
            (fun arc p ->
              Slc_num.Memo.find_or_build arcs (Arc.name arc) ignore;
              oracle.Oracle.query arc p);
        }
      in
      ignore
        (Sdag.slack_report_compiled d.Generate.compiled counted
           ~input_arrivals:design_inputs ~outputs:(Generate.required d 1e-9));
      Alcotest.(check int)
        (Printf.sprintf "design %d: one build per distinct arc" seed)
        (Slc_num.Memo.length arcs) (Atomic.get builds))
    (List.init 20 Fun.id)

let test_large_design_completes () =
  (* 100k gates: forward + backward + report end to end.  Exercises the
     flat pass at scale; the closed-form oracle keeps it at graph-engine
     cost only. *)
  let d = Generate.design tech ~vdd ~seed:3 ~gates:100_000 in
  let k = d.Generate.compiled in
  Alcotest.(check int) "all gates placed" 100_000 (Sdag.compiled_gates k);
  let widths = Sdag.level_widths k in
  Alcotest.(check bool) "log-depth levelization" true
    (Array.length widths < 100);
  Alcotest.(check int) "levels partition the gates" 100_000
    (Array.fold_left ( + ) 0 widths);
  let rows =
    Sdag.slack_report_compiled k synthetic_oracle
      ~input_arrivals:design_inputs ~outputs:(Generate.required d 1e-9)
  in
  Alcotest.(check int) "one row per net" (Sdag.compiled_nets k)
    (List.length rows);
  List.iter
    (fun (r : Sdag.slack_row) ->
      if not (Float.is_finite r.Sdag.arrival_time) then
        Alcotest.fail "non-finite arrival")
    rows

let test_oracle_cache_growth () =
  let calls = ref 0 in
  let counted =
    {
      synthetic_oracle with
      Oracle.query =
        (fun arc p ->
          incr calls;
          synthetic_oracle.Oracle.query arc p);
    }
  in
  let c = Oracle.make_cache () in
  let w = Oracle.cached c counted in
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let p = { Harness.sin; cload = 2e-15; vdd } in
  let d0, s0 = w.Oracle.query arc p in
  let d1, s1 = w.Oracle.query arc p in
  Alcotest.(check int) "one underlying query" 1 !calls;
  Alcotest.(check int) "one entry" 1 (Oracle.cache_size c);
  Alcotest.(check bool) "hit is bitwise" true
    (Int64.bits_of_float d0 = Int64.bits_of_float d1
    && Int64.bits_of_float s0 = Int64.bits_of_float s1);
  (* The table grows from a small one through several doublings:
     every point is queried once, each is one entry, and a second sweep
     hits bitwise. *)
  let arcs = [| arc; Arc.find Cells.nand2 ~pin:"B" ~out_dir:Arc.Rise |] in
  let n = 10_000 in
  let point i =
    { Harness.sin = sin *. float_of_int (2 + (i / 100));
      cload = 1.3e-15 *. float_of_int (1 + (i mod 100)); vdd }
  in
  let query i = w.Oracle.query arcs.((i / 50) mod 2) (point i) in
  let first = Array.init n query in
  Alcotest.(check int) "one underlying query per point" (n + 1) !calls;
  Alcotest.(check int) "one entry per point" (n + 1) (Oracle.cache_size c);
  let bits (d, s) = (Int64.bits_of_float d, Int64.bits_of_float s) in
  for i = 0 to n - 1 do
    if bits (query i) <> bits first.(i) then
      Alcotest.failf "point %d: hit differs from its first answer" i
  done;
  Alcotest.(check int) "second sweep is all hits" (n + 1) !calls

(* A long-lived cache fed ever new keys stays bounded: 200 000
   distinct points, four times the bound, keep [cache_size] at or below
   [max_cache_size] after every query while the cache fills to the bound
   and starts over, and every answer, first or repeated, is bitwise the
   uncached oracle's. *)
let test_oracle_cache_bounded () =
  let c = Oracle.make_cache () in
  let w = Oracle.cached c synthetic_oracle in
  let arcs =
    [|
      Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall;
      Arc.find Cells.nor2 ~pin:"B" ~out_dir:Arc.Rise;
    |]
  in
  let n = 200_000 in
  let point i =
    { Harness.sin = sin *. float_of_int (1 + (i / 1000));
      cload = 1e-16 *. float_of_int (1 + (i mod 1000)); vdd }
  in
  let bits (d, s) = (Int64.bits_of_float d, Int64.bits_of_float s) in
  let largest = ref 0 in
  let check i =
    let arc = arcs.(i mod 2) and p = point i in
    if bits (w.Oracle.query arc p) <> bits (synthetic_oracle.Oracle.query arc p)
    then Alcotest.failf "point %d: cached answer differs from the oracle's" i;
    let size = Oracle.cache_size c in
    if size > Oracle.max_cache_size then
      Alcotest.failf "point %d: %d entries, bound %d" i size Oracle.max_cache_size;
    largest := max !largest size
  in
  for i = 0 to n - 1 do
    check i
  done;
  Alcotest.(check int) "filled to the bound" Oracle.max_cache_size !largest;
  for i = n - 1 downto n - 1000 do
    check i
  done

(* Keys compare coordinate bits: 0.0 and -0.0 are different queries. *)
let test_oracle_cache_signed_zero () =
  let calls = ref 0 in
  let tagged =
    {
      Oracle.label = "tagged";
      query =
        (fun _ _ ->
          incr calls;
          (float_of_int !calls, 0.0));
    }
  in
  let c = Oracle.make_cache () in
  let w = Oracle.cached c tagged in
  let arc = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall in
  let pos = { Harness.sin; cload = 0.0; vdd } in
  let neg = { pos with Harness.cload = -0.0 } in
  let dp, _ = w.Oracle.query arc pos in
  let dn, _ = w.Oracle.query arc neg in
  Alcotest.(check int) "two underlying queries" 2 !calls;
  Alcotest.(check int) "two entries" 2 (Oracle.cache_size c);
  Alcotest.(check (float 0.0)) "+0.0 answer" 1.0 dp;
  Alcotest.(check (float 0.0)) "-0.0 answer" 2.0 dn;
  Alcotest.(check (float 0.0)) "+0.0 hit" 1.0 (fst (w.Oracle.query arc pos));
  Alcotest.(check (float 0.0)) "-0.0 hit" 2.0 (fst (w.Oracle.query arc neg))

(* Four domains miss the same keys at once.  Every build returns a
   fresh value, so a caller that kept its own build instead of the
   first published one would disagree with the others. *)
let test_oracle_cache_concurrent_publish () =
  let builds = Atomic.make 0 in
  let fresh =
    {
      Oracle.label = "fresh";
      query =
        (fun _ _ ->
          let spin = ref 0 in
          for _ = 1 to 20_000 do
            incr spin
          done;
          ignore (Sys.opaque_identity !spin);
          (float_of_int (Atomic.fetch_and_add builds 1), 0.0));
    }
  in
  let c = Oracle.make_cache () in
  let w = Oracle.cached c fresh in
  let arc = Arc.find Cells.nor2 ~pin:"A" ~out_dir:Arc.Rise in
  let keys = 64 and copies = 8 in
  let point k = { Harness.sin; cload = 1e-15 *. float_of_int (k + 1); vdd } in
  let got =
    Slc_num.Parallel.map ~domains:4 ~chunk:1
      (fun q -> fst (w.Oracle.query arc (point (q mod keys))))
      (Array.init (keys * copies) Fun.id)
  in
  Alcotest.(check int) "one entry per key" keys (Oracle.cache_size c);
  Alcotest.(check bool) "at least one build per key" true
    (Atomic.get builds >= keys);
  for k = 0 to keys - 1 do
    let published = fst (w.Oracle.query arc (point k)) in
    for copy = 0 to copies - 1 do
      let v = got.((copy * keys) + k) in
      if Int64.bits_of_float v <> Int64.bits_of_float published then
        Alcotest.failf "key %d: a caller saw %g, the cache holds %g" k v
          published
    done
  done

(* ------------------------------------------------------------------ *)
(* Verilog ingestion at scale *)

(* The chain is built twice: in source order, and with its instances
   listed in reverse, where every instance reads a net driven later in
   the file — the order a repeat-until-placed sweep handled in
   quadratic time. *)
let test_verilog_chain_8k () =
  let n = 8_000 in
  let chain ~reverse =
    let b = Buffer.create (n * 40) in
    Buffer.add_string b "module chain (a, y);\n  input a;\n  output y;\n";
    for i = 1 to n - 1 do
      Printf.bprintf b "  wire n%d;\n" i
    done;
    let net i =
      if i = 0 then "a" else if i = n then "y" else Printf.sprintf "n%d" i
    in
    for j = 1 to n do
      let i = if reverse then n + 1 - j else j in
      Printf.bprintf b "  INV u%d (.A(%s), .Y(%s));\n" i (net (i - 1)) (net i)
    done;
    Buffer.add_string b "endmodule\n";
    Buffer.contents b
  in
  let build ~reverse =
    let v = Verilog.parse (chain ~reverse) in
    Alcotest.(check int) "wires" (n - 1) (List.length v.Verilog.wires);
    let dag, ins, outs = Verilog.to_sdag v tech ~vdd in
    Alcotest.(check int) "one input" 1 (List.length ins);
    Alcotest.(check int) "one output" 1 (List.length outs);
    let k = Sdag.compile dag in
    Alcotest.(check int) "every instance placed" n (Sdag.compiled_gates k);
    Sdag.level_widths k
  in
  let forward = build ~reverse:false in
  Alcotest.(check (array int)) "reverse order builds the same levels" forward
    (build ~reverse:true)

let () =
  Alcotest.run "slc_ssta"
    [
      ( "chain",
        [
          Alcotest.test_case "validation" `Quick test_chain_validation;
          Alcotest.test_case "arc directions alternate" `Quick
            test_chain_arcs_alternate;
          Alcotest.test_case "stage delays telescope" `Quick
            test_chain_simulation_telescopes;
          Alcotest.test_case "longer chain slower" `Quick
            test_chain_longer_is_slower;
          Alcotest.test_case "seed sensitivity" `Quick test_chain_seed_sensitivity;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "simulator oracle" `Quick
            test_oracle_simulator_matches_harness;
          Alcotest.test_case "library oracle" `Quick test_oracle_library;
          Alcotest.test_case "memoization" `Slow test_oracle_memoizes;
          Alcotest.test_case "concurrent memo misses" `Quick
            test_oracle_memo_concurrent_miss;
          Alcotest.test_case "cross-instance trained cache" `Slow
            test_oracle_bank_cross_instance_cache;
          Alcotest.test_case "query cache" `Slow test_oracle_query_cache;
          Alcotest.test_case "cached production oracles (bitwise)" `Slow
            test_cached_production_oracles_bitwise;
        ] );
      ( "path",
        [
          Alcotest.test_case "matches chain (simulator oracle)" `Slow
            test_path_matches_chain_with_simulator_oracle;
          Alcotest.test_case "stage structure" `Slow test_path_stage_structure;
          Alcotest.test_case "statistical shapes" `Slow
            test_path_statistical_shapes;
          Alcotest.test_case "falling input polarity" `Slow
            test_path_falling_input;
          Alcotest.test_case "bayes library oracle" `Slow
            test_bayes_library_oracle_on_path;
        ] );
      ( "yield",
        [
          Alcotest.test_case "of_delays" `Quick test_yield_of_delays;
          Alcotest.test_case "of_path" `Slow test_yield_of_path;
          Alcotest.test_case "of_dag" `Slow test_yield_of_dag;
          Alcotest.test_case "of_dag two outputs" `Slow
            test_yield_of_dag_two_outputs;
        ] );
      ( "sdag",
        [
          Alcotest.test_case "pin checking" `Quick test_dag_pin_checking;
          Alcotest.test_case "pin check messages" `Quick
            test_dag_pin_check_messages;
          Alcotest.test_case "pin order is free (bitwise)" `Quick
            test_dag_pin_order_free;
          Alcotest.test_case "explicit loads sum (bitwise)" `Quick
            test_dag_loads_sum;
          Alcotest.test_case "single-edge propagation" `Quick
            test_dag_single_edge_propagation;
          Alcotest.test_case "max semantics" `Slow test_dag_max_semantics;
          Alcotest.test_case "dag equals path on a chain" `Slow
            test_dag_chain_equals_path;
          Alcotest.test_case "net names" `Quick test_dag_net_names;
          Alcotest.test_case "slack report" `Slow test_dag_slack_report;
          Alcotest.test_case "fanout adds load" `Slow test_dag_fanout_adds_load;
          Alcotest.test_case "persistent query cache" `Slow
            test_dag_persistent_cache;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "structure" `Quick test_compiled_structure;
          Alcotest.test_case "equal slacks, highest net first" `Quick
            test_slack_tie_order;
          Alcotest.test_case "NaN arc rows (bitwise)" `Quick test_slack_nan_arc;
          QCheck_alcotest.to_alcotest prop_row_order;
          Alcotest.test_case "equal arrivals keep the first candidate" `Quick
            test_equal_arrivals_keep_first;
          Alcotest.test_case "builder and cached passes agree (bitwise)"
            `Quick test_compiled_paths_agree;
          Alcotest.test_case "a pass builds each arc once" `Quick
            test_pass_builds_each_arc_once;
          Alcotest.test_case "oracle cache growth" `Quick
            test_oracle_cache_growth;
          Alcotest.test_case "oracle cache stays bounded" `Quick
            test_oracle_cache_bounded;
          Alcotest.test_case "oracle cache keeps -0.0 apart" `Quick
            test_oracle_cache_signed_zero;
          Alcotest.test_case "oracle cache concurrent publication" `Quick
            test_oracle_cache_concurrent_publish;
          Alcotest.test_case "100k-gate design completes" `Slow
            test_large_design_completes;
        ] );
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "wire caps finite" `Quick
            test_wire_cap_draw_finite;
        ] );
      ( "verilog",
        [ Alcotest.test_case "8k-gate chain" `Quick test_verilog_chain_8k ] );
    ]
