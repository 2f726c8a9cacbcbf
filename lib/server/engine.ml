(* The resident query engine: long-lived caches + request dispatch.

   Every cache is a [Slc_num.Memo]: builds run outside the lock and the
   first published value wins.  Builds are deterministic, so duplicate
   concurrent builds cannot change what callers observe. *)

open Slc_core
module Tech = Slc_device.Tech
module Process = Slc_device.Process
module Cells = Slc_cell.Cells
module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness
module Store = Slc_store.Store
module Oracle = Slc_ssta.Oracle
module Telemetry = Slc_obs.Telemetry
module Slc_error = Slc_obs.Slc_error
module Memo = Slc_num.Memo

(* Raised for well-formed requests the library cannot answer; caught in
   [exec] and rendered as [Err (Domain, _)].  Never escapes. *)
exception Domain_error of string

let domain_fail fmt = Printf.ksprintf (fun m -> raise (Domain_error m)) fmt

type pop_key = {
  pk_tech : string;
  pk_cell : string;
  pk_pin : string;
  pk_dir : string;
  pk_method : string;
  pk_k : int;
  pk_seeds : int;
  pk_rng : int;
}

type t = {
  store : Store.t option;
  prior_for : Tech.t -> Prior.pair;
  bank : Tech.t -> k:int -> Oracle.t;
  oracles : (string * int, Oracle.t) Memo.t;
      (* (tech name, k) -> query-cached bank *)
  pops : (pop_key, Statistical.population) Memo.t;
}

let create ?store ?prior_for ?bank () =
  (* One learned (or store-loaded) prior per technology, shared by every
     k and by the pdf path — prior physical identity is what keys the
     process-wide trained-predictor cache. *)
  let prior_for =
    match prior_for with Some f -> f | None -> Store.prior_source store
  in
  let bank =
    match bank with
    | Some b -> b
    | None ->
      fun tech ~k -> Oracle.bayes_bank ?store ~prior:(prior_for tech) tech ~k
  in
  {
    store;
    prior_for;
    bank;
    oracles = Memo.create ();
    pops = Memo.create ();
  }

(* ----------------------------------------------------------------- *)
(* Name resolution (Not_found -> typed domain error) *)

let tech_of name =
  match Tech.by_name name with
  | t -> t
  | exception Not_found -> domain_fail "unknown technology %S" name

let cell_of name =
  match Cells.by_name name with
  | c -> c
  | exception Not_found -> domain_fail "unknown cell %S" name

let arc_of cell ~pin ~dir =
  match Arc.find cell ~pin ~out_dir:dir with
  | a -> a
  | exception Not_found ->
    domain_fail "cell %s has no %s arc on pin %S" cell.Cells.name
      (Arc.direction_to_string dir) pin

(* ----------------------------------------------------------------- *)
(* Query paths *)

(* The per-(tech, k) bank, wrapped in an exact query cache so repeated
   conditions are answered without re-entering the predictor.  Bank
   construction is cheap; training happens lazily per arc inside the
   bank's own memo. *)
let oracle_for t tech ~k =
  Memo.find_or_build t.oracles (tech.Tech.name, k) (fun () ->
      Oracle.cached (Oracle.make_cache ()) (t.bank tech ~k))

let run_query t (q : Protocol.query) =
  if q.q_k < 1 then domain_fail "k must be >= 1, got %d" q.q_k;
  let tech = tech_of q.q_tech in
  let arc = arc_of (cell_of q.q_cell) ~pin:q.q_pin ~dir:q.q_dir in
  let oracle = oracle_for t tech ~k:q.q_k in
  oracle.Oracle.query arc q.q_point

let method_of t tech = function
  | "bayes" -> Statistical.Bayes (t.prior_for tech)
  | "lse" -> Statistical.Lse
  | "lut" -> Statistical.Lut
  | m -> domain_fail "unknown method %S (want bayes, lse or lut)" m

let population_for t (p : Protocol.pdf_query) tech arc =
  let key =
    {
      pk_tech = tech.Tech.name;
      pk_cell = p.p_cell;
      pk_pin = p.p_pin;
      pk_dir = Arc.direction_to_string p.p_dir;
      pk_method = p.p_method;
      pk_k = p.p_k;
      pk_seeds = p.p_seeds;
      pk_rng = p.p_rng;
    }
  in
  Memo.find_or_build t.pops key (fun () ->
      let seeds =
        Process.sample_batch (Slc_prob.Rng.create p.p_rng) tech p.p_seeds
      in
      let method_ = method_of t tech p.p_method in
      match t.store with
      | None ->
        Statistical.extract_population_design ~design:Statistical.Curated
          ~method_ ~tech ~arc ~seeds ~budget:p.p_k ()
      | Some st ->
        fst
          (Store.extract_population ~store:st ~method_
             ~design:Statistical.Curated ~tech ~arc ~seeds ~budget:p.p_k ()))

let run_pdf t (p : Protocol.pdf_query) =
  if p.p_k < 1 then domain_fail "k must be >= 1, got %d" p.p_k;
  if p.p_seeds < 2 then domain_fail "seeds must be >= 2, got %d" p.p_seeds;
  if p.p_grid < 2 then domain_fail "grid must be >= 2, got %d" p.p_grid;
  let tech = tech_of p.p_tech in
  let arc = arc_of (cell_of p.p_cell) ~pin:p.p_pin ~dir:p.p_dir in
  let pop = population_for t p tech arc in
  Statistical.predict_density pop p.p_point ~td:true ~grid:p.p_grid

let run_sta t (s : Protocol.sta_query) =
  if s.s_k < 1 then domain_fail "k must be >= 1, got %d" s.s_k;
  let tech = tech_of s.s_tech in
  match
    Slc_ssta.Verilog.sta tech
      ~oracle:(fun () -> oracle_for t tech ~k:s.s_k)
      ~clock:s.s_clock s.s_netlist
  with
  | Error m -> domain_fail "%s" m
  | Ok (_, rows) ->
    List.map
      (fun r ->
        ( r.Slc_ssta.Sdag.net_label,
          r.Slc_ssta.Sdag.arrival_time,
          r.Slc_ssta.Sdag.required_time,
          r.Slc_ssta.Sdag.slack ))
      rows

(* ----------------------------------------------------------------- *)
(* Stats + dispatch *)

let stats _t =
  let c name counter = (name, string_of_int (Telemetry.read counter)) in
  [
    ("sims", string_of_int (Harness.sim_count ()));
    c "simulations" Telemetry.simulations;
    c "oracle_hits" Telemetry.oracle_hits;
    c "oracle_misses" Telemetry.oracle_misses;
    c "trained_hits" Telemetry.trained_hits;
    c "trained_misses" Telemetry.trained_misses;
    c "store_hits" Telemetry.store_hits;
    c "store_misses" Telemetry.store_misses;
    c "template_hits" Telemetry.template_hits;
    c "template_misses" Telemetry.template_misses;
  ]

let exec t (req : Protocol.request) : Protocol.response =
  try
    match req with
    | Ping -> Ok_pong
    | Quit | Shutdown -> Ok_bye
    | Stats -> Ok_stats (stats t)
    | Delay q ->
      let td, sout = run_query t q in
      Ok_delay (td, sout)
    | Slew q ->
      let _td, sout = run_query t q in
      Ok_slew sout
    | Pdf p -> Ok_pdf (run_pdf t p)
    | Sta s -> Ok_sta (run_sta t s)
  with
  | Domain_error m -> Err (Domain, m)
  | Slc_error.Invalid_input iv -> Err (Domain, Slc_error.invalid_message iv)
  | Slc_error.No_convergence c ->
    Err (Domain, Slc_error.convergence_message c)
  | Slc_error.Simulation_failed sf ->
    Err (Domain, Slc_error.sim_failure_message sf)
  | Slc_error.Store_failed sf ->
    Err (Domain, Slc_error.store_fault_message sf)
  | Not_found -> Err (Domain, "not found")
  | Sys_error m -> Err (Domain, m)
  | e -> Err (Internal, Printexc.to_string e)
