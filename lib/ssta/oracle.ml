module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness
module Library = Slc_cell.Library
module Nldm = Slc_cell.Nldm
module Char_flow = Slc_core.Char_flow
module Telemetry = Slc_obs.Telemetry
module Memo = Slc_num.Memo

type t = {
  query : Arc.t -> Harness.point -> float * float;
  label : string;
}

(* The per-oracle arc memo is queried concurrently: a levelized
   parallel timing pass ([Sdag.forward_compiled]) calls [oracle.query]
   from every pool domain on shard-cache misses, and the long-lived
   characterization server answers many connections against one oracle
   value — hence a domain-safe [Memo], not a plain table. *)
let of_predictors ~label build =
  let memo = Memo.create () in
  {
    label;
    query =
      (fun arc point ->
        let p = Memo.find_or_build memo (Arc.name arc) (fun () -> build arc) in
        (p.Char_flow.predict_td point, p.Char_flow.predict_sout point));
  }

let of_library lib =
  {
    label = "nldm-library";
    query =
      (fun arc point ->
        match
          Library.find lib ~cell:arc.Arc.cell.Slc_cell.Cells.name
            ~pin:arc.Arc.pin ~out_dir:arc.Arc.out_dir
        with
        | Some e ->
          (Nldm.lookup_td e.Library.table point,
           Nldm.lookup_sout e.Library.table point)
        | None -> raise Not_found);
  }

let of_simulator ?seed tech =
  {
    label = "simulator";
    query =
      (fun arc point ->
        let m = Harness.simulate ?seed tech arc point in
        (m.Harness.td, m.Harness.sout));
  }

(* ------------------------------------------------------------------ *)
(* Query-result cache.

   Oracle queries are pure (training happens once per arc; predictors
   and tables are deterministic functions of the point), so repeated
   identical queries — a fanout net driving many gates, a path re-timed
   at the same slew — can reuse the first answer.  Keys are the literal
   point coordinates, so cached results are bitwise identical to
   uncached ones.  The table is sharded by key hash so that concurrent
   queries from a levelized parallel timing pass contend on independent
   locks instead of serializing on one. *)

type cache = (string * float * float * float, float * float) Memo.t

let make_cache () =
  Memo.create ~shards:16
    ~counters:(Telemetry.oracle_hits, Telemetry.oracle_misses)
    ()

let cache_size = Memo.length

let cached c oracle =
  let query arc (point : Harness.point) =
    let key =
      (Arc.name arc, point.Harness.sin, point.Harness.cload, point.Harness.vdd)
    in
    Memo.find_or_build c key (fun () -> oracle.query arc point)
  in
  { oracle with query }

(* ------------------------------------------------------------------ *)
(* Process-wide trained-predictor cache for [bayes_bank].

   Training is deterministic and pure — the same (prior, tech, k, seed,
   arc) always yields the same predictor — so, exactly like the
   compiled-testbench cache in Harness, there is no reason to pay the
   k simulations again because a caller rebuilt the oracle value.
   Priors are compared physically (a registry assigns each distinct
   prior pair an id): value equality over closures is not decidable,
   and the flows that matter reuse one learned prior object. *)

let[@slc.domain_safe "guarded by prior_registry_lock"] prior_registry :
    (Slc_core.Prior.pair * int) list ref =
  ref []

let prior_registry_lock = Mutex.create ()

let prior_id prior =
  Mutex.lock prior_registry_lock;
  let id =
    match List.find_opt (fun (p, _) -> p == prior) !prior_registry with
    | Some (_, id) -> id
    | None ->
      let id = List.length !prior_registry in
      prior_registry := (prior, id) :: !prior_registry;
      id
  in
  Mutex.unlock prior_registry_lock;
  id

type trained_key =
  int
  * string
  * int
  * Slc_device.Process.seed option
  * string
  * float option (* GPR-fallback threshold, None = analytical only *)

let trained : (trained_key, Char_flow.predictor) Memo.t =
  Memo.create ~counters:(Telemetry.trained_hits, Telemetry.trained_misses) ()

let bayes_bank ?seed ?store ?gpr_fallback ~prior tech ~k =
  let pid = prior_id prior in
  (* The persistent tier keys by prior content, not physical identity:
     serialize the prior once per bank, not once per arc. *)
  let persistent =
    Option.map
      (fun st -> (st, Slc_store.Store.prior_fingerprint prior))
      store
  in
  of_predictors ~label:(Printf.sprintf "bayes-k%d" k) (fun arc ->
      let key =
        (pid, tech.Slc_device.Tech.name, k, seed, Arc.name arc, gpr_fallback)
      in
      Memo.find_or_build trained key (fun () ->
          let skey =
            Option.map
              (fun (st, prior_fp) ->
                ( st,
                  Slc_store.Store.predictor_key ?gpr:gpr_fallback ~prior_fp
                    ~tech ~arc ~k ~seed () ))
              persistent
          in
          let stored =
            match skey with
            | None -> None
            | Some (st, skey) -> (
              match
                Slc_store.Store.find_predictor ?seed st ~key:skey ~tech ~arc
              with
              | Some p ->
                Telemetry.incr Telemetry.store_hits;
                Some p
              | None ->
                Telemetry.incr Telemetry.store_misses;
                None)
          in
          match stored with
          | Some p -> p
          | None ->
            let p =
              match gpr_fallback with
              | None -> Char_flow.train_bayes ?seed ~prior tech arc ~k
              | Some threshold ->
                (* Same curated design and MAP fit as [train_bayes],
                   but the dataset is kept so the analytical fit can
                   be checked against it and replaced by a GPR model
                   when its residuals exceed the threshold. *)
                let ds =
                  Char_flow.simulate_dataset ?seed tech arc
                    (Slc_core.Input_space.fitting_points tech ~k)
                in
                let p = Char_flow.train_bayes_on ?seed ~prior tech ds in
                Char_flow.with_gpr_fallback ~threshold tech ds p
            in
            Option.iter
              (fun (st, skey) -> Slc_store.Store.put_predictor st ~key:skey p)
              skey;
            p))
