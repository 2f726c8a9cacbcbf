(* Tests for the persistent characterization store: exact float codecs,
   artifact round-trips, checkpoint/resume, crash safety and the
   zero-simulation replay contract.

   The store's headline guarantee is BITWISE identity: everything that
   comes back from disk must equal the in-process result bit for bit.
   Floats are therefore compared through [Int64.bits_of_float], never
   with a tolerance. *)

open Slc_core
module Tech = Slc_device.Tech
module Process = Slc_device.Process
module Cells = Slc_cell.Cells
module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness
module Nldm = Slc_cell.Nldm
module Library = Slc_cell.Library
module Store = Slc_store.Store
module Hexfloat = Slc_num.Hexfloat
module Rng = Slc_prob.Rng
module Err = Slc_obs.Slc_error
module Tel = Slc_obs.Telemetry

let tech = Tech.n14
let inv_fall = Arc.find Cells.inv ~pin:"A" ~out_dir:Arc.Fall

let check_bits msg expected actual =
  Alcotest.(check int64)
    msg
    (Int64.bits_of_float expected)
    (Int64.bits_of_float actual)

(* A unique empty directory per call: reserve a unique temp-file name,
   then turn it into a directory. *)
let fresh_dir () =
  let f = Filename.temp_file "slc-test-store" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let seeds4 = Process.sample_batch (Rng.create 13) tech 4

let points3 =
  [|
    { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 };
    { Harness.sin = 17e-12; cload = 6e-15; vdd = 0.72 };
    { Harness.sin = 9e-12; cload = 1.3e-15; vdd = 0.66 };
  |]

(* ------------------------------------------------------------------ *)
(* Hexfloat: the exact codec everything else leans on *)

let test_hexfloat_exact_corners () =
  List.iter
    (fun x ->
      check_bits (Printf.sprintf "roundtrip %h" x) x
        (Hexfloat.of_string (Hexfloat.to_string x)))
    [
      0.0; -0.0; 1.0; -1.0; Float.pi; infinity; neg_infinity; min_float;
      max_float; 4.9e-324 (* smallest subnormal *); -2.2250738585072011e-308;
      1.0000000000000002 (* 1 + ulp *); 3.141592653589793e-200;
    ]

let test_hexfloat_nan () =
  (* NaN payloads collapse to the canonical nan — documented, and no
     stored artifact contains NaN. *)
  Alcotest.(check bool)
    "nan stays nan" true
    (Float.is_nan (Hexfloat.of_string (Hexfloat.to_string Float.nan)))

let prop_hexfloat_roundtrip =
  QCheck.Test.make ~name:"hexfloat roundtrips any finite float bitwise"
    ~count:500
    QCheck.(float)
    (fun x ->
      QCheck.assume (not (Float.is_nan x));
      Int64.bits_of_float (Hexfloat.of_string (Hexfloat.to_string x))
      = Int64.bits_of_float x)

let test_rng_save_restore () =
  let r = Rng.create 99 in
  for _ = 1 to 10 do
    ignore (Rng.float r)
  done;
  let saved = Rng.save r in
  let r' = Rng.restore saved in
  for i = 1 to 20 do
    check_bits (Printf.sprintf "stream value %d" i) (Rng.float r)
      (Rng.float r')
  done;
  match Rng.restore "zz" with
  | _ -> Alcotest.fail "malformed state accepted"
  | exception Slc_obs.Slc_error.Invalid_input _ -> ()

(* ------------------------------------------------------------------ *)
(* Store open / versioning *)

let test_open_fresh_and_reopen () =
  let dir = fresh_dir () in
  ignore (Store.open_ dir);
  (* reopen over the marker *)
  ignore (Store.open_ dir);
  (* a nested path is created from scratch *)
  ignore (Store.open_ (Filename.concat dir "does-not-exist-yet"))

let test_open_version_mismatch () =
  let dir = fresh_dir () in
  ignore (Store.open_ dir);
  Out_channel.with_open_text (Filename.concat dir "VERSION") (fun oc ->
      Out_channel.output_string oc "slc-store 999\n");
  match Store.open_ dir with
  | _ -> Alcotest.fail "expected Store_failed"
  | exception Err.Store_failed f ->
    Alcotest.(check bool)
      "version mismatch" true
      (f.Err.st_kind = Err.Store_version_mismatch)

let test_open_non_store_dir () =
  let dir = fresh_dir () in
  Out_channel.with_open_text (Filename.concat dir "random.txt") (fun oc ->
      Out_channel.output_string oc "hello");
  match Store.open_ dir with
  | _ -> Alcotest.fail "expected Store_failed"
  | exception Err.Store_failed f ->
    Alcotest.(check bool)
      "refused" true
      (f.Err.st_kind = Err.Store_version_mismatch)

(* ------------------------------------------------------------------ *)
(* NLDM table round-trip (property: random tables, bitwise floats) *)

let random_table rng =
  let axis n lo hi =
    Option.get
      (Slc_num.Interp.axis
         (Array.init n (fun i ->
              lo +. ((hi -. lo) *. float_of_int i /. float_of_int (max 1 (n - 1))))))
  in
  let n_s = 1 + Rng.int rng 3
  and n_c = 1 + Rng.int rng 3
  and n_v = 1 + Rng.int rng 2 in
  let grid () =
    Array.init n_s (fun _ ->
        Array.init n_c (fun _ ->
            Array.init n_v (fun _ -> Rng.uniform rng ~lo:(-1e-9) ~hi:1e-9)))
  in
  {
    Nldm.arc_name = "INV/A/fall";
    sin_axis = axis n_s 1e-12 2e-11;
    cload_axis = axis n_c 5e-16 8e-15;
    vdd_axis = axis n_v 0.6 1.0;
    td = grid ();
    sout = grid ();
    energy = grid ();
  }

let prop_nldm_roundtrip =
  QCheck.Test.make ~name:"NLDM to_string/of_string is bitwise lossless"
    ~count:50
    QCheck.(int_bound 100000)
    (fun seed ->
      let t = random_table (Rng.create seed) in
      let t' = Nldm.of_string (Nldm.to_string t) in
      let eq3 a b =
        Array.for_all2
          (fun p q ->
            Array.for_all2
              (fun r s ->
                Array.for_all2
                  (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
                  r s)
              p q)
          a b
      in
      t'.Nldm.arc_name = t.Nldm.arc_name
      && t'.Nldm.sin_axis = t.Nldm.sin_axis
      && t'.Nldm.cload_axis = t.Nldm.cload_axis
      && t'.Nldm.vdd_axis = t.Nldm.vdd_axis
      && eq3 t'.Nldm.td t.Nldm.td
      && eq3 t'.Nldm.sout t.Nldm.sout
      && eq3 t'.Nldm.energy t.Nldm.energy)

let test_nldm_rejects_garbage () =
  match Nldm.of_string "slc-nldm 999\nend" with
  | _ -> Alcotest.fail "future-format table accepted"
  | exception Slc_num.Line_reader.Malformed _ -> ()

(* ------------------------------------------------------------------ *)
(* Prior round-trip *)

let tiny_prior =
  lazy
    (Prior.learn_pair ~cells:[ Cells.inv ] ~grid_levels:[| 2; 2; 2 |]
       ~historical:[ Tech.n20; Tech.n45 ] ())

let test_prior_roundtrip_bitwise () =
  let st = Store.open_ (fresh_dir ()) in
  let prior = Lazy.force tiny_prior in
  let key = "tiny-prior" in
  Store.put_prior st ~key prior;
  match Store.find_prior st ~key with
  | None -> Alcotest.fail "prior not found after put"
  | Some p ->
    Alcotest.(check string)
      "prior content identical"
      (Store.prior_fingerprint prior)
      (Store.prior_fingerprint p);
    let mu = prior.Prior.delay.Prior.mvn.Slc_prob.Mvn.mu in
    let mu' = p.Prior.delay.Prior.mvn.Slc_prob.Mvn.mu in
    Array.iteri (fun i x -> check_bits "mu component" x mu'.(i)) mu;
    Alcotest.(check int)
      "learn_cost" prior.Prior.delay.Prior.learn_cost
      p.Prior.delay.Prior.learn_cost

(* ------------------------------------------------------------------ *)
(* Predictor round-trip *)

let test_predictor_roundtrip_bitwise () =
  let st = Store.open_ (fresh_dir ()) in
  let p = Char_flow.train_lse tech inv_fall ~k:2 in
  let key =
    Store.predictor_key ~prior_fp:"lse" ~tech ~arc:inv_fall ~k:2 ~seed:None ()
  in
  Store.put_predictor st ~key p;
  match Store.find_predictor st ~key ~tech ~arc:inv_fall with
  | None -> Alcotest.fail "predictor not found after put"
  | Some p' ->
    Alcotest.(check string) "label" p.Char_flow.label p'.Char_flow.label;
    Alcotest.(check int)
      "train_cost" p.Char_flow.train_cost p'.Char_flow.train_cost;
    Array.iter
      (fun pt ->
        check_bits "td prediction"
          (p.Char_flow.predict_td pt)
          (p'.Char_flow.predict_td pt);
        check_bits "sout prediction"
          (p.Char_flow.predict_sout pt)
          (p'.Char_flow.predict_sout pt))
      points3

let test_predictor_opaque_rejected () =
  let st = Store.open_ (fresh_dir ()) in
  let p = Char_flow.train_rsm tech inv_fall ~k:4 in
  Alcotest.(check bool)
    "rsm model is opaque" true
    (p.Char_flow.model = Char_flow.Opaque);
  match Store.put_predictor st ~key:"deadbeef" p with
  | () -> Alcotest.fail "expected Invalid_input"
  | exception Slc_obs.Slc_error.Invalid_input _ -> ()

(* Load-or-train: the cold call is one miss that trains (k sims) and
   persists; the warm call is one hit that never trains and predicts
   bitwise the same. *)
let test_get_predictor_counts () =
  let st = Store.open_ (fresh_dir ()) in
  let prior = Lazy.force tiny_prior in
  let k = 2 in
  let key =
    Store.predictor_key ~prior_fp:(Store.prior_fingerprint prior) ~tech
      ~arc:inv_fall ~k ~seed:None ()
  in
  let get train = Store.get_predictor st ~key ~seed:None ~tech ~arc:inv_fall train in
  let was_on = Tel.on () in
  Tel.enable ();
  let counts () =
    ( Tel.read Tel.store_hits,
      Tel.read Tel.store_misses,
      Tel.read Tel.simulations )
  in
  Tel.reset ();
  let cold = get (fun () -> Char_flow.train_bayes ~prior tech inv_fall ~k) in
  let cold_counts = counts () in
  Tel.reset ();
  let warm = get (fun () -> Alcotest.fail "warm call trained") in
  let warm_counts = counts () in
  Tel.reset ();
  if not was_on then Tel.disable ();
  Alcotest.(check (triple int int int))
    "cold: 0 hits, 1 miss, k sims" (0, 1, k) cold_counts;
  Alcotest.(check (triple int int int))
    "warm: 1 hit, 0 misses, 0 sims" (1, 0, 0) warm_counts;
  Array.iter
    (fun pt ->
      check_bits "td prediction"
        (cold.Char_flow.predict_td pt)
        (warm.Char_flow.predict_td pt);
      check_bits "sout prediction"
        (cold.Char_flow.predict_sout pt)
        (warm.Char_flow.predict_sout pt))
    points3

(* One learn per node per store: the first request learns and
   persists, the same source returns that very pair for free, and a new
   source on the same store loads identical content for free. *)
let test_prior_source_learns_once () =
  let st = Store.open_ (fresh_dir ()) in
  let cost f =
    let before = Harness.sim_count () in
    let x = f () in
    (x, Harness.sim_count () - before)
  in
  let source = Store.prior_source (Some st) in
  let first, first_cost = cost (fun () -> source Tech.n14) in
  Alcotest.(check bool) "first request learns" true (first_cost > 0);
  let again, again_cost = cost (fun () -> source Tech.n14) in
  Alcotest.(check int) "same source: 0 sims" 0 again_cost;
  Alcotest.(check bool) "same source: physically the same pair" true
    (again == first);
  let loaded, loaded_cost =
    cost (fun () -> Store.prior_source (Some st) Tech.n14)
  in
  Alcotest.(check int) "new source on the store: 0 sims" 0 loaded_cost;
  Alcotest.(check string)
    "new source on the store: same content"
    (Prior_io.to_string first) (Prior_io.to_string loaded)

(* ------------------------------------------------------------------ *)
(* Library round-trip *)

let test_library_roundtrip_bitwise () =
  let st = Store.open_ (fresh_dir ()) in
  let levels = [| 2; 2; 1 |] in
  let lib = Library.characterize ~cells:[ Cells.inv ] tech ~levels in
  let key = Store.library_key ~seed:None ~tech ~cells:[ "INV" ] ~levels in
  Store.put_library st ~key lib;
  match Store.find_library st ~key with
  | None -> Alcotest.fail "library not found after put"
  | Some lib' ->
    Alcotest.(check int)
      "sim_runs" lib.Library.sim_runs lib'.Library.sim_runs;
    Array.iter
      (fun pt ->
        check_bits "library delay" (Helpers.library_delay lib inv_fall pt)
          (Helpers.library_delay lib' inv_fall pt);
        check_bits "library slew" (Helpers.library_slew lib inv_fall pt)
          (Helpers.library_slew lib' inv_fall pt))
      points3

(* ------------------------------------------------------------------ *)
(* Populations: store-served and resumed results are bitwise equal to
   a fresh single-process extraction *)

let check_pop_bitwise_equal (a : Statistical.population)
    (b : Statistical.population) =
  Alcotest.(check int) "train_cost" a.Statistical.train_cost
    b.Statistical.train_cost;
  Alcotest.(check int)
    "seed count"
    (Array.length a.Statistical.seeds)
    (Array.length b.Statistical.seeds);
  Array.iteri
    (fun i seed ->
      (match (a.Statistical.status.(i), b.Statistical.status.(i)) with
      | Statistical.Seed_ok, Statistical.Seed_ok -> ()
      | Statistical.Seed_degraded x, Statistical.Seed_degraded y ->
        Alcotest.(check int) "degraded count" x y
      | Statistical.Seed_failed _, Statistical.Seed_failed _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "status mismatch at seed %d" i));
      match a.Statistical.status.(i) with
      | Statistical.Seed_failed _ -> ()
      | _ ->
        Array.iter
          (fun pt ->
            check_bits "td sample"
              (a.Statistical.predict_td seed pt)
              (b.Statistical.predict_td seed pt);
            check_bits "sout sample"
              (a.Statistical.predict_sout seed pt)
              (b.Statistical.predict_sout seed pt))
          points3)
    a.Statistical.seeds

let extract_fresh () =
  Statistical.extract_population_design ~design:Statistical.Curated
    ~method_:Statistical.Lse ~tech ~arc:inv_fall ~seeds:seeds4 ~budget:2 ()

let store_extract ?after_batch st =
  Store.extract_population ?after_batch ~batch_size:2 ~store:st
    ~method_:Statistical.Lse ~design:Statistical.Curated ~tech ~arc:inv_fall
    ~seeds:seeds4 ~budget:2 ()

let test_population_store_equals_fresh () =
  let fresh = extract_fresh () in
  let st = Store.open_ (fresh_dir ()) in
  let cold, outcome = store_extract st in
  (match outcome with
  | Store.Computed { resumed_seeds = 0; computed_seeds = 4; batches = 2 } -> ()
  | Store.Computed { resumed_seeds; computed_seeds; batches } ->
    Alcotest.fail
      (Printf.sprintf "unexpected outcome: resumed %d computed %d batches %d"
         resumed_seeds computed_seeds batches)
  | Store.Hit -> Alcotest.fail "cold store cannot hit");
  check_pop_bitwise_equal fresh cold;
  (* second call: served from the artifact, zero simulations *)
  let before = Harness.sim_count () in
  let warm, outcome = store_extract st in
  Alcotest.(check int) "hit runs zero simulations" before (Harness.sim_count ());
  Alcotest.(check bool) "hit" true (outcome = Store.Hit);
  check_pop_bitwise_equal fresh warm;
  (* peek also sees it *)
  match
    Store.find_population ~store:st ~method_:Statistical.Lse
      ~design:Statistical.Curated ~tech ~arc:inv_fall ~seeds:seeds4 ~budget:2
      ~min_points:2
  with
  | Some peek -> check_pop_bitwise_equal fresh peek
  | None -> Alcotest.fail "find_population missed a finished artifact"

exception Injected_crash

let test_population_resume_after_crash () =
  let fresh = extract_fresh () in
  let st = Store.open_ (fresh_dir ()) in
  let sims0 = Harness.sim_count () in
  (* Crash at the first checkpoint boundary: batch 1 (2 of 4 seeds) is
     durably checkpointed, batch 2 never runs. *)
  (match
     store_extract st ~after_batch:(fun n -> if n = 1 then raise Injected_crash)
   with
  | _ -> Alcotest.fail "crash did not propagate"
  | exception Injected_crash -> ());
  let crash_sims = Harness.sim_count () - sims0 in
  (* Resume: only the missing batch is simulated... *)
  let sims1 = Harness.sim_count () in
  let resumed, outcome = store_extract st in
  let resume_sims = Harness.sim_count () - sims1 in
  (match outcome with
  | Store.Computed { resumed_seeds = 2; computed_seeds = 2; batches = 1 } -> ()
  | Store.Computed { resumed_seeds; computed_seeds; batches } ->
    Alcotest.fail
      (Printf.sprintf "unexpected resume: resumed %d computed %d batches %d"
         resumed_seeds computed_seeds batches)
  | Store.Hit -> Alcotest.fail "checkpoint must not look like a final artifact");
  (* ...and the interrupted + resumed total equals one uninterrupted
     run, in both simulator runs and accounted train_cost. *)
  Alcotest.(check int)
    "crash + resume sims = fresh cost" fresh.Statistical.train_cost
    (crash_sims + resume_sims);
  check_pop_bitwise_equal fresh resumed

let test_corrupt_checkpoint_discarded () =
  let fresh = extract_fresh () in
  let st = Store.open_ (fresh_dir ()) in
  let key =
    Store.population_key ~method_:Statistical.Lse ~design:Statistical.Curated
      ~tech ~arc:inv_fall ~seeds:seeds4 ~budget:2 ~min_points:2
  in
  let ckpt = Store.artifact_path st `Population key ^ ".ckpt" in
  Out_channel.with_open_text ckpt (fun oc ->
      Out_channel.output_string oc "slc-pop-ckpt 1\nkey ");
  let pop, outcome = store_extract st in
  (match outcome with
  | Store.Computed { resumed_seeds = 0; computed_seeds = 4; _ } -> ()
  | _ -> Alcotest.fail "corrupt checkpoint should be discarded silently");
  check_pop_bitwise_equal fresh pop

(* Regression: checkpoint entries are serialized in seed-index order,
   not Hashtbl iteration order, so the on-disk bytes of an interrupted
   run are reproducible.  (The loader rejects out-of-order entries, so
   a fold-ordered writer would also break resume outright whenever the
   table's internal order diverged from the index order.) *)
let test_checkpoint_bytes_deterministic () =
  let crashed_ckpt () =
    let st = Store.open_ (fresh_dir ()) in
    (match
       store_extract st
         ~after_batch:(fun n -> if n = 1 then raise Injected_crash)
     with
    | _ -> Alcotest.fail "crash did not propagate"
    | exception Injected_crash -> ());
    let key =
      Store.population_key ~method_:Statistical.Lse
        ~design:Statistical.Curated ~tech ~arc:inv_fall ~seeds:seeds4
        ~budget:2 ~min_points:2
    in
    In_channel.with_open_text
      (Store.artifact_path st `Population key ^ ".ckpt")
      In_channel.input_all
  in
  let a = crashed_ckpt () in
  let b = crashed_ckpt () in
  Alcotest.(check string) "two interrupted runs checkpoint identically" a b;
  let entry_indices =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "entry"; i ] -> Some (int_of_string i)
        | _ -> None)
      (String.split_on_char '\n' a)
  in
  Alcotest.(check bool) "checkpoint holds at least one entry" true
    (entry_indices <> []);
  Alcotest.(check (list int))
    "entries appear in ascending seed order"
    (List.sort compare entry_indices)
    entry_indices

(* ------------------------------------------------------------------ *)
(* The checkpoint log: torn and corrupt tails, duplicates, old formats.
   Every damaged checkpoint must resume to the fresh population bitwise,
   re-simulating exactly the seeds of the records it could not keep. *)

let pop_key =
  Store.population_key ~method_:Statistical.Lse ~design:Statistical.Curated
    ~tech ~arc:inv_fall ~seeds:seeds4 ~budget:2 ~min_points:2

let ckpt_file st = Store.artifact_path st `Population pop_key ^ ".ckpt"

let fresh_pop = lazy (extract_fresh ())

(* The checkpoint of a run interrupted after both batches, and each
   record's simulator runs. *)
let full_checkpoint =
  lazy
    (let st = Store.open_ (fresh_dir ()) in
     let marks = ref [ Harness.sim_count () ] in
     (match
        store_extract st ~after_batch:(fun n ->
            marks := Harness.sim_count () :: !marks;
            if n = 2 then raise Injected_crash)
      with
     | _ -> Alcotest.fail "crash did not propagate"
     | exception Injected_crash -> ());
     match List.rev !marks with
     | [ m0; m1; m2 ] -> (read_file (ckpt_file st), [| m1 - m0; m2 - m1 |])
     | _ -> Alcotest.fail "expected two batches")

(* Byte offsets of the record lines of a checkpoint. *)
let record_starts text =
  let rec go pos acc =
    if pos >= String.length text then List.rev acc
    else
      let eol =
        Option.value (String.index_from_opt text pos '\n')
          ~default:(String.length text)
      in
      go (eol + 1)
        (if String.starts_with ~prefix:"record " (String.sub text pos (eol - pos))
         then pos :: acc
         else acc)
  in
  go 0 []

let resume_store = lazy (Store.open_ (fresh_dir ()))

(* Resumes from checkpoint [text] and checks it against a fresh run: the
   population bitwise, and the simulator runs spent equal the fresh cost
   minus the costs of the records kept (always a prefix of both).
   Returns the seeds resumed and the checkpoint bytes after each batch
   the resume ran. *)
let resume_checked text =
  let fresh = Lazy.force fresh_pop in
  let _, costs = Lazy.force full_checkpoint in
  let st = Lazy.force resume_store in
  write_file (ckpt_file st) text;
  let snapshots = ref [] in
  let before = Harness.sim_count () in
  let pop, outcome =
    store_extract st ~after_batch:(fun _ ->
        snapshots := read_file (ckpt_file st) :: !snapshots)
  in
  let spent = Harness.sim_count () - before in
  Sys.remove (Store.artifact_path st `Population pop_key);
  check_pop_bitwise_equal fresh pop;
  let resumed =
    match outcome with
    | Store.Computed { resumed_seeds; _ } -> resumed_seeds
    | Store.Hit -> Alcotest.fail "a checkpoint must not look like a final artifact"
  in
  (* Each record holds two seeds. *)
  let kept_cost = Array.fold_left ( + ) 0 (Array.sub costs 0 (resumed / 2)) in
  Alcotest.(check int)
    "sims = fresh cost - kept records" (fresh.Statistical.train_cost - kept_cost)
    spent;
  (resumed, List.rev !snapshots)

let test_torn_tail_dropped () =
  let text, _ = Lazy.force full_checkpoint in
  let r2 = List.nth (record_starts text) 1 in
  List.iter
    (fun cut ->
      let resumed, snapshots = resume_checked (String.sub text 0 cut) in
      Alcotest.(check int) "record 1 resumed" 2 resumed;
      (* The intact prefix is kept and batch 2 appended again: the log
         reads as if never interrupted. *)
      Alcotest.(check (list string)) "log after re-running batch 2" [ text ]
        snapshots)
    [ r2 + 4; r2 + ((String.length text - r2) / 2); String.length text - 1 ]

let test_corrupt_tail_dropped () =
  let text, _ = Lazy.force full_checkpoint in
  let r2 = List.nth (record_starts text) 1 in
  let eol2 = String.index_from text r2 '\n' in
  let flip at =
    String.mapi (fun i c -> if i = at then (if c = '0' then '1' else '0') else c) text
  in
  (* A mantissa digit inside record 2's body, so the record still
     parses, and the last digit of its cost: record 1 is kept, record 2
     never. *)
  let body_digit =
    let rec find i = if String.sub text i 4 = "0x1." then i + 4 else find (i + 1) in
    find (eol2 + ((String.length text - eol2) / 2))
  in
  List.iter
    (fun at ->
      let resumed, _ = resume_checked (flip at) in
      Alcotest.(check int) "only the intact record resumed" 2 resumed)
    [ body_digit; eol2 - 1 ]

let test_duplicate_record_skipped () =
  let text, _ = Lazy.force full_checkpoint in
  let r1, r2 =
    match record_starts text with [ a; b ] -> (a, b) | _ -> Alcotest.fail "two records"
  in
  let rec1 = String.sub text r1 (r2 - r1) in
  (* Record 1 appended twice, as by two extractions of the same key. *)
  let dup = String.sub text 0 r2 ^ rec1 ^ String.sub text r2 (String.length text - r2) in
  let resumed, snapshots = resume_checked dup in
  Alcotest.(check int) "every seed resumed once" 4 resumed;
  Alcotest.(check int) "no batch re-run" 0 (List.length snapshots)

let test_old_format_checkpoint_discarded () =
  let text, costs = Lazy.force full_checkpoint in
  (* The pre-log format: one block rewritten after every batch. *)
  let entries =
    List.filter
      (fun l -> not (String.starts_with ~prefix:"record " l))
      (List.filteri (fun j _ -> j >= 3) (String.split_on_char '\n' text))
  in
  let old =
    Printf.sprintf "slc-pop-ckpt 1\nkey %s\nnseeds 4\ncost %d\nndone 4\n%send\n"
      pop_key (costs.(0) + costs.(1)) (String.concat "\n" entries)
  in
  let resumed, snapshots = resume_checked old in
  Alcotest.(check int) "nothing resumed" 0 resumed;
  Alcotest.(check string) "replaced by a fresh log" text (List.nth snapshots 1)

let seeds16 = Process.sample_batch (Rng.create 29) tech 16

(* The checkpoint bytes after each batch of a 16-seed run at batch 4,
   the final artifact, and the store_checkpoint_bytes counter. *)
let run16 () =
  let st = Store.open_ (fresh_dir ()) in
  let key =
    Store.population_key ~method_:Statistical.Lse ~design:Statistical.Curated
      ~tech ~arc:inv_fall ~seeds:seeds16 ~budget:2 ~min_points:2
  in
  let final = Store.artifact_path st `Population key in
  let snapshots = ref [] in
  let was_on = Tel.on () in
  Tel.enable ();
  Tel.reset ();
  let _, outcome =
    Store.extract_population ~batch_size:4 ~store:st ~method_:Statistical.Lse
      ~design:Statistical.Curated ~tech ~arc:inv_fall ~seeds:seeds16 ~budget:2
      ~after_batch:(fun _ -> snapshots := read_file (final ^ ".ckpt") :: !snapshots)
      ()
  in
  let bytes = Tel.read Tel.store_checkpoint_bytes in
  let records = Tel.read Tel.store_checkpoints in
  Tel.reset ();
  if not was_on then Tel.disable ();
  (match outcome with
  | Store.Computed { batches = 4; _ } -> ()
  | _ -> Alcotest.fail "expected four batches");
  (List.rev !snapshots, read_file final, bytes, records)

let test_checkpoint_append_only () =
  let snapshots, _, _, _ = run16 () in
  Alcotest.(check int) "one snapshot per batch" 4 (List.length snapshots);
  List.iteri
    (fun k s ->
      Alcotest.(check int)
        (Printf.sprintf "records after batch %d" (k + 1))
        (k + 1)
        (List.length (record_starts s)))
    snapshots;
  let rec prefixes = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "batch k's bytes prefix batch k+1's" true
        (String.starts_with ~prefix:a b);
      prefixes rest
    | _ -> ()
  in
  prefixes snapshots

let test_checkpoint_bytes_linear () =
  let snapshots, final, bytes, records = run16 () in
  let log = List.nth snapshots 3 in
  Alcotest.(check int) "one record per batch" 4 records;
  Alcotest.(check int) "every byte written once" (String.length log) bytes;
  let record_lines =
    List.fold_left
      (fun acc r -> acc + String.index_from log r '\n' + 1 - r)
      0 (record_starts log)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes <= final %d + record lines %d" bytes
       (String.length final) record_lines)
    true
    (bytes <= String.length final + record_lines)

let test_corrupt_final_artifact_raises () =
  let st = Store.open_ (fresh_dir ()) in
  ignore (store_extract st);
  let key =
    Store.population_key ~method_:Statistical.Lse ~design:Statistical.Curated
      ~tech ~arc:inv_fall ~seeds:seeds4 ~budget:2 ~min_points:2
  in
  let path = Store.artifact_path st `Population key in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "slc-pop 1\nkey truncated-mid-write");
  match store_extract st with
  | _ -> Alcotest.fail "expected Store_failed on a corrupt final artifact"
  | exception Err.Store_failed f ->
    Alcotest.(check bool)
      "corrupt or key mismatch" true
      (f.Err.st_kind = Err.Store_corrupt || f.Err.st_kind = Err.Store_key_mismatch)

let test_version_mismatch_artifact_raises () =
  let st = Store.open_ (fresh_dir ()) in
  ignore (store_extract st);
  let key =
    Store.population_key ~method_:Statistical.Lse ~design:Statistical.Curated
      ~tech ~arc:inv_fall ~seeds:seeds4 ~budget:2 ~min_points:2
  in
  let path = Store.artifact_path st `Population key in
  let content = In_channel.with_open_text path In_channel.input_all in
  let rewritten =
    "slc-pop 999\n"
    ^ String.concat "\n" (List.tl (String.split_on_char '\n' content))
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc rewritten);
  match store_extract st with
  | _ -> Alcotest.fail "expected Store_failed on a future-format artifact"
  | exception Err.Store_failed f ->
    Alcotest.(check bool)
      "version mismatch" true
      (f.Err.st_kind = Err.Store_version_mismatch)

(* ------------------------------------------------------------------ *)
(* Telemetry reconciliation: a hit is observable as zero simulations *)

let test_store_hit_telemetry () =
  let st = Store.open_ (fresh_dir ()) in
  ignore (store_extract st);
  let was_on = Tel.on () in
  Tel.enable ();
  Tel.reset ();
  ignore (store_extract st);
  Alcotest.(check int) "zero simulations" 0 (Tel.read Tel.simulations);
  Alcotest.(check int) "one store hit" 1 (Tel.read Tel.store_hits);
  Alcotest.(check int) "no store miss" 0 (Tel.read Tel.store_misses);
  Tel.reset ();
  if not was_on then Tel.disable ()

(* ------------------------------------------------------------------ *)
(* Bayes method keys off prior content *)

let test_population_bayes_key_tracks_prior () =
  let prior = Lazy.force tiny_prior in
  let key_of ~budget =
    Store.population_key
      ~method_:(Statistical.Bayes prior)
      ~design:Statistical.Curated ~tech ~arc:inv_fall ~seeds:seeds4 ~budget
      ~min_points:2
  in
  Alcotest.(check bool)
    "same inputs, same key" true
    (key_of ~budget:2 = key_of ~budget:2);
  Alcotest.(check bool)
    "budget changes the key" false
    (key_of ~budget:2 = key_of ~budget:3);
  let rng = Rng.create 3 in
  let k_curated = key_of ~budget:2 in
  let k_random =
    Store.population_key
      ~method_:(Statistical.Bayes prior)
      ~design:(Statistical.Random_per_seed rng) ~tech ~arc:inv_fall
      ~seeds:seeds4 ~budget:2 ~min_points:2
  in
  Alcotest.(check bool) "design changes the key" false (k_curated = k_random)

(* ------------------------------------------------------------------ *)
(* Adaptive design: checkpoint/resume bitwise identity and key
   sensitivity to the acquisition hyper-parameters *)

let adaptive_design () =
  Statistical.Adaptive (Statistical.adaptive_defaults (Rng.create 21))

let extract_fresh_adaptive () =
  Statistical.extract_population_design ~design:(adaptive_design ())
    ~method_:Statistical.Lse ~tech ~arc:inv_fall ~seeds:seeds4 ~budget:2 ()

let store_extract_adaptive ?after_batch st =
  Store.extract_population ?after_batch ~batch_size:2 ~store:st
    ~method_:Statistical.Lse ~design:(adaptive_design ()) ~tech ~arc:inv_fall
    ~seeds:seeds4 ~budget:2 ()

let test_adaptive_population_resume_equals_fresh () =
  let fresh = extract_fresh_adaptive () in
  let st = Store.open_ (fresh_dir ()) in
  (* Crash at the first checkpoint boundary, then resume: the adaptive
     per-seed designs key off Process.index, so the resumed half must
     re-derive identical candidate pools and acquisition paths. *)
  (match
     store_extract_adaptive st ~after_batch:(fun n ->
         if n = 1 then raise Injected_crash)
   with
  | _ -> Alcotest.fail "crash did not propagate"
  | exception Injected_crash -> ());
  let resumed, outcome = store_extract_adaptive st in
  (match outcome with
  | Store.Computed { resumed_seeds = 2; computed_seeds = 2; batches = 1 } -> ()
  | Store.Computed { resumed_seeds; computed_seeds; batches } ->
    Alcotest.fail
      (Printf.sprintf "unexpected resume: resumed %d computed %d batches %d"
         resumed_seeds computed_seeds batches)
  | Store.Hit -> Alcotest.fail "checkpoint must not look like a final artifact");
  check_pop_bitwise_equal fresh resumed;
  (* Replay: the finished artifact serves with zero simulations. *)
  let before = Harness.sim_count () in
  let warm, outcome = store_extract_adaptive st in
  Alcotest.(check int) "replay runs zero simulations" before
    (Harness.sim_count ());
  Alcotest.(check bool) "hit" true (outcome = Store.Hit);
  check_pop_bitwise_equal fresh warm

let test_adaptive_key_sensitivity () =
  let key_of ad =
    Store.population_key ~method_:Statistical.Lse
      ~design:(Statistical.Adaptive ad) ~tech ~arc:inv_fall ~seeds:seeds4
      ~budget:2 ~min_points:2
  in
  let base () = Statistical.adaptive_defaults (Rng.create 9) in
  Alcotest.(check bool)
    "same acquisition params, same key" true
    (key_of (base ()) = key_of (base ()));
  Alcotest.(check bool)
    "candidate pool size changes the key" false
    (key_of (base ()) = key_of { (base ()) with Statistical.a_candidates = 32 });
  Alcotest.(check bool)
    "gpr threshold changes the key" false
    (key_of (base ())
    = key_of { (base ()) with Statistical.a_gpr_threshold = 0.1 });
  Alcotest.(check bool)
    "design generator state changes the key" false
    (key_of (base ())
    = key_of (Statistical.adaptive_defaults (Rng.create 10)))

(* A predictor whose model is the nonparametric GPR pair (forced by a
   vanishing fallback threshold) must survive the store bitwise — the
   training sets round-trip via Hexfloat and Gpr.refit rebuilds the
   same posterior. *)
let test_gpr_predictor_roundtrip_bitwise () =
  let st = Store.open_ (fresh_dir ()) in
  let prior = Lazy.force tiny_prior in
  let ds =
    Char_flow.simulate_dataset tech inv_fall
      (Input_space.fitting_points tech ~k:4)
  in
  let p0 = Char_flow.train_bayes_on ~prior tech ds in
  let p = Char_flow.with_gpr_fallback ~threshold:1e-12 tech ds p0 in
  Alcotest.(check string) "fallback engaged" "model+gpr" p.Char_flow.label;
  let prior_fp = Store.prior_fingerprint prior in
  let key =
    Store.predictor_key ~gpr:1e-12 ~prior_fp ~tech ~arc:inv_fall ~k:4
      ~seed:None ()
  in
  Alcotest.(check bool)
    "gpr threshold participates in the predictor key" false
    (key = Store.predictor_key ~prior_fp ~tech ~arc:inv_fall ~k:4 ~seed:None ());
  Store.put_predictor st ~key p;
  match Store.find_predictor st ~key ~tech ~arc:inv_fall with
  | None -> Alcotest.fail "gpr predictor not found after put"
  | Some p' ->
    Alcotest.(check string) "label" p.Char_flow.label p'.Char_flow.label;
    Array.iter
      (fun pt ->
        check_bits "td prediction"
          (p.Char_flow.predict_td pt)
          (p'.Char_flow.predict_td pt);
        check_bits "sout prediction"
          (p.Char_flow.predict_sout pt)
          (p'.Char_flow.predict_sout pt))
      points3

(* ------------------------------------------------------------------ *)
(* Malformed artifacts: one reader, one error *)

module Reader = Slc_num.Line_reader

let malformed f =
  match f () with
  | _ -> false
  | exception Reader.Malformed _ -> true

let store_corrupt f =
  match f () with
  | _ -> false
  | exception Err.Store_failed { Err.st_kind = Err.Store_corrupt; _ } -> true

(* [text] with the first line that starts with [prefix] replaced. *)
let replace_line text ~prefix by =
  let done_ = ref false in
  String.split_on_char '\n' text
  |> List.map (fun l ->
         if (not !done_) && String.starts_with ~prefix l then (
           done_ := true;
           by)
         else l)
  |> String.concat "\n"

let test_prior_negative_count () =
  let text = Prior_io.to_string (Lazy.force tiny_prior) in
  let bad = replace_line text ~prefix:"provenance " "provenance -1" in
  Alcotest.(check bool) "parse rejects" true
    (malformed (fun () -> Prior_io.parse bad));
  let st = Store.open_ (fresh_dir ()) in
  let key = "negative-provenance" in
  write_file (Store.artifact_path st `Prior key) bad;
  Alcotest.(check bool) "store reports Store_corrupt" true
    (store_corrupt (fun () -> Store.find_prior st ~key))

let test_prior_beta_axes_validated () =
  let text = Prior_io.to_string (Lazy.force tiny_prior) in
  (* The delay block's three axes, then its beta line, emptied. *)
  let empty_axis t = replace_line t ~prefix:"axis 2 " "axis 0" in
  let empty_grid =
    empty_axis (empty_axis (empty_axis (replace_line text ~prefix:"beta " "beta")))
  in
  Alcotest.(check bool) "empty beta grid" true
    (malformed (fun () -> Prior_io.parse empty_grid));
  let descending = replace_line text ~prefix:"axis 2 " "axis 2 0.95 0.05" in
  Alcotest.(check bool) "descending axis" true
    (malformed (fun () -> Prior_io.parse descending))

let test_prior_covariance_validated () =
  let text = Prior_io.to_string (Lazy.force tiny_prior) in
  let cov = "cov -1" ^ String.concat "" (List.init 15 (fun _ -> " 0")) in
  let not_pd = replace_line text ~prefix:"cov " cov in
  Alcotest.(check bool) "negative variance" true
    (malformed (fun () -> Prior_io.parse not_pd))

let tiny_library =
  lazy (Library.characterize ~cells:[ Cells.inv ] tech ~levels:[| 2; 2; 1 |])

let test_trailing_lines_rejected () =
  let prior = Prior_io.to_string (Lazy.force tiny_prior) in
  Alcotest.(check bool) "prior" true
    (malformed (fun () -> Prior_io.parse (prior ^ "end\n")));
  let lib = Library.to_string (Lazy.force tiny_library) in
  Alcotest.(check bool) "library" true
    (malformed (fun () -> Library.of_string (lib ^ "garbage\n")))

(* Every format, every mutation: a line-boundary truncation, a deleted
   line, a numeric field replaced by a non-number, a count replaced by
   a negative one.  Each mutant must raise the reader's one exception
   (or [Store_corrupt] through [Store.find_*]) and nothing else; the
   unmutated text must round-trip bitwise. *)

let lines_of text =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)

let unlines ls = String.concat "\n" ls ^ "\n"

(* Positions (line, field) of the integer counts, by line keyword. *)
let count_fields i line =
  let fs = Array.of_list (String.split_on_char ' ' line) in
  let at k = if Array.length fs > k then [ (i, k) ] else [] in
  match fs.(0) with
  | "slc-prior" | "slc-nldm" | "slc-library" | "slc-pred" | "slc-pop"
  | "provenance" | "cost" | "sim_runs" | "entries" | "train_cost" | "nseeds"
  | "budget" | "min_points" | "entry" | "slc-pop-log" ->
    at 1
  | "record" -> at 1 @ at 3
  | "axis" -> if int_of_string_opt fs.(1) <> None then at 1 else at 2
  | "status" -> at 2
  | ("td" | "sout") when Array.length fs = 8 -> at 7
  | _ -> []

let numeric_fields i line =
  List.concat
    (List.mapi
       (fun k f -> if k > 0 && float_of_string_opt f <> None then [ (i, k) ] else [])
       (String.split_on_char ' ' line))

let set_field lines (i, k) v =
  List.mapi
    (fun j l ->
      if j <> i then l
      else
        String.concat " "
          (List.mapi (fun m f -> if m = k then v else f) (String.split_on_char ' ' l)))
    lines

let mutants text (r1, r2) =
  let ls = lines_of text in
  let n = List.length ls in
  let pick xs r = List.nth xs (r mod List.length xs) in
  let positions f = List.concat (List.mapi f ls) in
  [
    ("truncate", unlines (List.filteri (fun j _ -> j < r1 mod n) ls));
    ("delete", unlines (List.filteri (fun j _ -> j <> r1 mod n) ls));
    ("non-number", unlines (set_field ls (pick (positions numeric_fields) r2) "x"));
    ("negative", unlines (set_field ls (pick (positions count_fields) r2) "-1"));
  ]

type artifact = {
  name : string;
  text : string Lazy.t;
  roundtrips : string -> bool;
  rejects : string -> bool;
}

let mutation_formats =
  let st = lazy (Store.open_ (fresh_dir ())) in
  let via_store kind key find text =
    let st = Lazy.force st in
    write_file (Store.artifact_path st kind key) text;
    find st
  in
  let find_pred st = Store.find_predictor st ~key:"mutant" ~tech ~arc:inv_fall in
  let find_pop st =
    Store.find_population ~store:st ~method_:Statistical.Lse
      ~design:Statistical.Curated ~tech ~arc:inv_fall ~seeds:seeds4 ~budget:2
      ~min_points:2
  in
  let predictor_text (p : Char_flow.predictor) =
    let st = Lazy.force st in
    Store.put_predictor st ~key:"mutant" p;
    read_file (Store.artifact_path st `Predictor "mutant")
  in
  let pred_roundtrips text =
    match via_store `Predictor "mutant" find_pred text with
    | None -> false
    | Some p ->
      let st = Lazy.force st in
      Store.put_predictor st ~key:"again" p;
      read_file (Store.artifact_path st `Predictor "again") = text
  in
  let pred_rejects text =
    store_corrupt (fun () -> via_store `Predictor "mutant" find_pred text)
  in
  [
    {
      name = "prior";
      text = lazy (Prior_io.to_string (Lazy.force tiny_prior));
      roundtrips = (fun t -> Prior_io.to_string (Prior_io.parse t) = t);
      rejects = (fun t -> malformed (fun () -> Prior_io.parse t));
    };
    {
      name = "nldm";
      text = lazy (Nldm.to_string (random_table (Rng.create 5)));
      roundtrips = (fun t -> Nldm.to_string (Nldm.of_string t) = t);
      rejects = (fun t -> malformed (fun () -> Nldm.of_string t));
    };
    {
      name = "library";
      text = lazy (Library.to_string (Lazy.force tiny_library));
      roundtrips = (fun t -> Library.to_string (Library.of_string t) = t);
      rejects = (fun t -> malformed (fun () -> Library.of_string t));
    };
    {
      name = "timing predictor";
      text = lazy (predictor_text (Char_flow.train_lse tech inv_fall ~k:2));
      roundtrips = pred_roundtrips;
      rejects = pred_rejects;
    };
    {
      name = "gpr predictor";
      text =
        lazy
          (let ds =
             Char_flow.simulate_dataset tech inv_fall
               (Input_space.fitting_points tech ~k:4)
           in
           let p0 = Char_flow.train_bayes_on ~prior:(Lazy.force tiny_prior) tech ds in
           predictor_text (Char_flow.with_gpr_fallback ~threshold:1e-12 tech ds p0));
      roundtrips = pred_roundtrips;
      rejects = pred_rejects;
    };
    {
      name = "population";
      text =
        lazy
          (let st = Lazy.force st in
           ignore (store_extract st);
           read_file (Store.artifact_path st `Population pop_key));
      roundtrips =
        (fun t ->
          match via_store `Population pop_key find_pop t with
          | None -> false
          | Some pop ->
            check_pop_bitwise_equal (Lazy.force fresh_pop) pop;
            true);
      rejects =
        (fun t -> store_corrupt (fun () -> via_store `Population pop_key find_pop t));
    };
  ]

let prop_every_mutant_rejected =
  let nformats = List.length mutation_formats in
  QCheck.Test.make ~name:"every artifact mutant raises the one reader error"
    ~count:1000
    QCheck.(triple (int_bound (nformats - 1)) (int_bound 9999) (int_bound 9999))
    (fun (f, r1, r2) ->
      let a = List.nth mutation_formats f in
      let text = Lazy.force a.text in
      if not (a.roundtrips text) then
        QCheck.Test.fail_reportf "%s: unmutated text does not round-trip" a.name;
      List.for_all
        (fun (kind, m) ->
          a.rejects m
          || QCheck.Test.fail_reportf "%s: %s mutant accepted:\n%s" a.name kind m)
        (mutants text (r1, r2)))

(* [text] with one hex digit, picked by [r], replaced by another. *)
let flip_hex text r =
  let digits = "0123456789abcdef" in
  let hex =
    List.filter
      (fun i -> String.contains digits text.[i])
      (List.init (String.length text) Fun.id)
  in
  let at = List.nth hex (r mod List.length hex) in
  let d = String.index digits text.[at] in
  String.mapi
    (fun i c -> if i = at then digits.[(d + 1 + (r mod 15)) mod 16] else c)
    text

(* Checkpoints take the same mutants plus a flipped hex digit, but the
   property differs: a checkpoint is never an error, so every mutant
   must resume to the fresh population bitwise, keeping only intact
   records.  Each case re-simulates, hence the small count. *)
let prop_every_checkpoint_mutant_resumes =
  QCheck.Test.make ~name:"every checkpoint mutant resumes to the fresh population"
    ~count:20
    QCheck.(triple (int_bound 9999) (int_bound 9999) (int_bound 9999))
    (fun (r1, r2, r3) ->
      let text, _ = Lazy.force full_checkpoint in
      List.for_all
        (fun (kind, m) ->
          match resume_checked m with
          | _ -> true
          | exception e ->
            QCheck.Test.fail_reportf "%s mutant: %s\n%s" kind (Printexc.to_string e) m)
        (("flip", flip_hex text r3) :: mutants text (r1, r2)))

let () =
  Alcotest.run "slc_store"
    [
      ( "codec",
        [
          Alcotest.test_case "hexfloat corners" `Quick
            test_hexfloat_exact_corners;
          Alcotest.test_case "hexfloat nan" `Quick test_hexfloat_nan;
          QCheck_alcotest.to_alcotest prop_hexfloat_roundtrip;
          Alcotest.test_case "rng save/restore" `Quick test_rng_save_restore;
        ] );
      ( "open",
        [
          Alcotest.test_case "fresh and reopen" `Quick
            test_open_fresh_and_reopen;
          Alcotest.test_case "version mismatch" `Quick
            test_open_version_mismatch;
          Alcotest.test_case "non-store dir refused" `Quick
            test_open_non_store_dir;
        ] );
      ( "artifacts",
        [
          QCheck_alcotest.to_alcotest prop_nldm_roundtrip;
          Alcotest.test_case "nldm rejects garbage" `Quick
            test_nldm_rejects_garbage;
          Alcotest.test_case "prior roundtrip" `Slow
            test_prior_roundtrip_bitwise;
          Alcotest.test_case "predictor roundtrip" `Quick
            test_predictor_roundtrip_bitwise;
          Alcotest.test_case "opaque predictor rejected" `Quick
            test_predictor_opaque_rejected;
          Alcotest.test_case "get_predictor miss then hit" `Slow
            test_get_predictor_counts;
          Alcotest.test_case "prior source learns once" `Slow
            test_prior_source_learns_once;
          Alcotest.test_case "library roundtrip" `Quick
            test_library_roundtrip_bitwise;
        ] );
      ( "population",
        [
          Alcotest.test_case "store equals fresh (bitwise)" `Slow
            test_population_store_equals_fresh;
          Alcotest.test_case "resume after crash equals fresh" `Slow
            test_population_resume_after_crash;
          Alcotest.test_case "corrupt checkpoint discarded" `Slow
            test_corrupt_checkpoint_discarded;
          Alcotest.test_case "checkpoint bytes deterministic" `Slow
            test_checkpoint_bytes_deterministic;
          Alcotest.test_case "torn checkpoint tail dropped" `Slow
            test_torn_tail_dropped;
          Alcotest.test_case "corrupt checkpoint record dropped" `Slow
            test_corrupt_tail_dropped;
          Alcotest.test_case "duplicate checkpoint record skipped" `Slow
            test_duplicate_record_skipped;
          Alcotest.test_case "old-format checkpoint discarded" `Slow
            test_old_format_checkpoint_discarded;
          Alcotest.test_case "checkpoint is append-only" `Slow
            test_checkpoint_append_only;
          Alcotest.test_case "checkpoint bytes linear (telemetry)" `Slow
            test_checkpoint_bytes_linear;
          Alcotest.test_case "corrupt final artifact raises" `Slow
            test_corrupt_final_artifact_raises;
          Alcotest.test_case "future-format artifact raises" `Slow
            test_version_mismatch_artifact_raises;
          Alcotest.test_case "hit is zero simulations (telemetry)" `Slow
            test_store_hit_telemetry;
          Alcotest.test_case "bayes key tracks prior content" `Slow
            test_population_bayes_key_tracks_prior;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "resume equals fresh (bitwise)" `Slow
            test_adaptive_population_resume_equals_fresh;
          Alcotest.test_case "key tracks acquisition params" `Quick
            test_adaptive_key_sensitivity;
          Alcotest.test_case "gpr predictor roundtrip" `Slow
            test_gpr_predictor_roundtrip_bitwise;
        ] );
      ( "malformed",
        [
          Alcotest.test_case "prior negative count" `Quick
            test_prior_negative_count;
          Alcotest.test_case "prior beta axes validated" `Quick
            test_prior_beta_axes_validated;
          Alcotest.test_case "prior covariance validated" `Quick
            test_prior_covariance_validated;
          Alcotest.test_case "trailing lines rejected" `Quick
            test_trailing_lines_rejected;
          QCheck_alcotest.to_alcotest prop_every_mutant_rejected;
          QCheck_alcotest.to_alcotest prop_every_checkpoint_mutant_resumes;
        ] );
    ]
