(* Tests for the probability / statistics library. *)

open Slc_prob
module Vec = Slc_num.Vec
module Mat = Slc_num.Mat

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.uint64 a) (Rng.uint64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different" true (Rng.uint64 a <> Rng.uint64 b)

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_uniform_moments () =
  let rng = Rng.create 6 in
  let xs = Array.init 40_000 (fun _ -> Rng.uniform rng ~lo:2.0 ~hi:4.0) in
  check_close ~tol:0.02 "mean" 3.0 (Describe.mean xs);
  check_close ~tol:0.02 "std" (2.0 /. sqrt 12.0) (Describe.std xs)

let test_rng_int () =
  let rng = Rng.create 7 in
  let counts = Array.make 5 0 in
  for _ = 1 to 25_000 do
    let i = Rng.int rng 5 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d balanced" i)
        true
        (c > 4_500 && c < 5_500))
    counts

let test_rng_split_independence () =
  let a = Rng.create 9 in
  let b = Rng.split_ix a 0 and c = Rng.split_ix a 1 in
  Alcotest.(check bool) "streams differ" true
    (Rng.uint64 a <> Rng.uint64 b && Rng.uint64 b <> Rng.uint64 c)

let test_shuffle_permutes () =
  let rng = Rng.create 10 in
  let a = Array.init 20 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  Array.sort compare b;
  Alcotest.(check (array int)) "same multiset" a b

(* ------------------------------------------------------------------ *)
(* Dist *)

let test_gaussian_moments () =
  let rng = Rng.create 21 in
  let xs = Array.init 50_000 (fun _ -> Dist.gaussian rng ~mu:5.0 ~sigma:2.0) in
  check_close ~tol:0.05 "mean" 5.0 (Describe.mean xs);
  check_close ~tol:0.05 "std" 2.0 (Describe.std xs);
  check_close ~tol:0.08 "skew" 0.0 (Describe.skewness xs)

let test_gaussian_ks () =
  let rng = Rng.create 22 in
  let xs = Array.init 5_000 (fun _ -> Dist.standard_gaussian rng) in
  (* Against the standard normal's quantiles at the mid-points of 5 000
     equal-probability slices. *)
  let ref_xs =
    Array.init 5_000 (fun i ->
        Slc_num.Special.normal_quantile ((float_of_int i +. 0.5) /. 5_000.0))
  in
  let d = Stattest.ks_two_sample xs ref_xs in
  Alcotest.(check bool) "KS small" true (d < 0.03)

let test_truncated_gaussian_bounds () =
  let rng = Rng.create 23 in
  for _ = 1 to 2_000 do
    let x = Dist.truncated_gaussian rng ~mu:0.0 ~sigma:1.0 ~lo:(-0.5) ~hi:0.7 in
    Alcotest.(check bool) "inside" true (x >= -0.5 && x <= 0.7)
  done

(* ------------------------------------------------------------------ *)
(* Describe *)

let test_describe_basic () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_close "mean" 5.0 (Describe.mean xs);
  check_close ~tol:1e-9 "variance" (32.0 /. 7.0) (Describe.std xs ** 2.0);
  check_close "median" 4.5 (Describe.quantile xs 0.5);
  check_close "q0" 2.0 (Describe.quantile xs 0.0);
  check_close "q1" 9.0 (Describe.quantile xs 1.0);
  let lo, hi = Describe.min_max xs in
  check_close "min" 2.0 lo;
  check_close "max" 9.0 hi

let test_describe_quantile_interp () =
  let xs = [| 0.0; 10.0 |] in
  check_close "q25" 2.5 (Describe.quantile xs 0.25)

let test_covariance_correlation () =
  let correlation xs ys =
    let c = Describe.covariance_matrix (Array.map2 (fun x y -> [| x; y |]) xs ys) in
    Mat.get c 0 1 /. sqrt (Mat.get c 0 0 *. Mat.get c 1 1)
  in
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 2.0; 4.0; 6.0; 8.0 |] in
  check_close ~tol:1e-12 "corr perfect" 1.0 (correlation xs ys);
  let zs = [| 8.0; 6.0; 4.0; 2.0 |] in
  check_close ~tol:1e-12 "corr anti" (-1.0) (correlation xs zs)

let test_covariance_matrix () =
  let rows = [| [| 1.0; 0.0 |]; [| 2.0; 1.0 |]; [| 3.0; 2.0 |] |] in
  let c = Describe.covariance_matrix rows in
  check_close ~tol:1e-12 "var x" 1.0 (Mat.get c 0 0);
  check_close ~tol:1e-12 "cov xy" 1.0 (Mat.get c 0 1);
  let mu = Describe.mean_vector rows in
  Alcotest.(check bool) "mean" true (Helpers.vec_close mu [| 2.0; 1.0 |])

let test_skewness_sign () =
  let right = [| 1.0; 1.0; 1.0; 2.0; 2.0; 10.0 |] in
  Alcotest.(check bool) "right skew positive" true (Describe.skewness right > 0.5)

(* ------------------------------------------------------------------ *)
(* Mvn *)

let test_mvn_sampling_recovers () =
  let rng = Rng.create 31 in
  let cov = Helpers.mat_of_rows [| [| 2.0; 0.8 |]; [| 0.8; 1.0 |] |] in
  let m = Mvn.make ~mu:[| 1.0; -1.0 |] ~cov in
  let samples = Mvn.sample_n m rng 20_000 in
  let fitted = Mvn.of_samples samples in
  Alcotest.(check bool)
    "mean recovered" true
    (Helpers.vec_close ~tol:0.05 (fitted : Mvn.t).Mvn.mu [| 1.0; -1.0 |]);
  Alcotest.(check bool)
    "cov recovered" true
    (Helpers.mat_close ~tol:0.1 fitted.Mvn.cov cov)

let test_mvn_repairs_borderline () =
  (* A sample covariance from nearly collinear rows still yields a
     usable distribution thanks to the automatic ridge. *)
  let rows =
    Array.init 6 (fun i ->
        let t = float_of_int i in
        [| t; 2.0 *. t +. 1e-9 |])
  in
  let m = Mvn.of_samples rows in
  Alcotest.(check bool) "dim" true (Array.length m.Mvn.mu = 2)

(* ------------------------------------------------------------------ *)
(* Sampling *)

let box2 : Sampling.box = [| (0.0, 1.0); (10.0, 20.0) |]

let inside box p =
  Array.for_all2 (fun (lo, hi) x -> x >= lo && x <= hi) box p

let test_random_box () =
  let rng = Rng.create 41 in
  let pts = Sampling.random_box rng box2 200 in
  Alcotest.(check int) "count" 200 (Array.length pts);
  Array.iter (fun p -> Alcotest.(check bool) "inside" true (inside box2 p)) pts

let test_latin_hypercube_stratification () =
  let rng = Rng.create 42 in
  let n = 16 in
  let pts = Sampling.latin_hypercube rng box2 n in
  (* Each dimension: exactly one point per stratum. *)
  Array.iteri
    (fun d (lo, hi) ->
      let counts = Array.make n 0 in
      Array.iter
        (fun p ->
          let u = (p.(d) -. lo) /. (hi -. lo) in
          let s = min (n - 1) (int_of_float (u *. float_of_int n)) in
          counts.(s) <- counts.(s) + 1)
        pts;
      Array.iter (fun c -> Alcotest.(check int) "one per stratum" 1 c) counts)
    box2

let test_halton_deterministic_and_spread () =
  let a = Sampling.halton box2 64 and b = Sampling.halton box2 64 in
  Alcotest.(check bool) "deterministic" true (a = b);
  Array.iter (fun p -> Alcotest.(check bool) "inside" true (inside box2 p)) a;
  (* First Halton point in base 2 is 1/2. *)
  Alcotest.(check (float 1e-12)) "first coord" 0.5 a.(0).(0)

let test_full_factorial () =
  let pts = Sampling.full_factorial box2 ~levels:[| 3; 2 |] in
  Alcotest.(check int) "count" 6 (Array.length pts);
  Alcotest.(check (float 1e-12)) "first" 0.0 pts.(0).(0);
  Alcotest.(check (float 1e-12)) "last x" 1.0 pts.(5).(0);
  Alcotest.(check (float 1e-12)) "last y" 20.0 pts.(5).(1);
  (* Singleton level sits at the center. *)
  let c = Sampling.full_factorial box2 ~levels:[| 1; 1 |] in
  Alcotest.(check (float 1e-12)) "center" 0.5 c.(0).(0)

let test_unit_mapping_roundtrip () =
  let p = [| 0.25; 17.5 |] in
  let u = Sampling.to_unit box2 p in
  let q = Sampling.scale_unit box2 u in
  Alcotest.(check bool) "roundtrip" true (Helpers.vec_close ~tol:1e-12 p q)

(* ------------------------------------------------------------------ *)
(* Kde / Stattest *)

let test_kde_gaussian_recovery () =
  let rng = Rng.create 51 in
  let xs = Array.init 4_000 (fun _ -> Dist.gaussian rng ~mu:0.0 ~sigma:1.0) in
  let k = Kde.fit xs in
  let peak = (Kde.evaluate k [| 0.0 |]).(0) in
  check_close ~tol:0.03 "peak near 1/sqrt(2pi)" 0.3989 peak

let test_kde_integrates_to_one () =
  let rng = Rng.create 52 in
  let xs = Array.init 500 (fun _ -> Dist.gaussian rng ~mu:3.0 ~sigma:0.5) in
  let k = Kde.fit xs in
  let grid = Kde.grid k ~pad:6.0 400 in
  let ys = Kde.evaluate k grid in
  check_close ~tol:1e-3 "mass" 1.0 (Helpers.trapezoid ~xs:grid ~ys)

let test_ks_two_sample () =
  let rng = Rng.create 53 in
  let xs = Array.init 2_000 (fun _ -> Dist.gaussian rng ~mu:0.0 ~sigma:1.0) in
  let ys = Array.init 2_000 (fun _ -> Dist.gaussian rng ~mu:0.0 ~sigma:1.0) in
  let zs = Array.init 2_000 (fun _ -> Dist.gaussian rng ~mu:1.0 ~sigma:1.0) in
  Alcotest.(check bool) "same dist small" true (Stattest.ks_two_sample xs ys < 0.06);
  Alcotest.(check bool) "shifted dist large" true (Stattest.ks_two_sample xs zs > 0.3)

let test_gaussian_quantile_roundtrip () =
  List.iter
    (fun p ->
      let x = Dist.gaussian_quantile ~mu:2.0 ~sigma:3.0 p in
      check_close ~tol:1e-6 "roundtrip" p (Slc_num.Special.normal_cdf ~mu:2.0 ~sigma:3.0 x))
    [ 0.05; 0.5; 0.95 ]

let test_kde_bandwidth_accessor () =
  let k = Kde.fit ~bandwidth:0.25 [| 1.0; 2.0; 3.0 |] in
  check_close ~tol:1e-12 "explicit bandwidth" 0.25 (Kde.bandwidth k);
  Alcotest.check_raises "bad bandwidth"
    (Slc_obs.Slc_error.Invalid_input (Slc_obs.Slc_error.invalid ~site:"Kde.fit" "bandwidth must be > 0")) (fun () ->
      ignore (Kde.fit ~bandwidth:0.0 [| 1.0; 2.0 |]))

(* With all mass at one location and an explicit bandwidth, the KDE is
   a single Gaussian kernel with a closed form:
     pdf(x) = phi((x - x0)/h) / h. *)
let test_kde_closed_form_single_kernel () =
  let x0 = 2e-11 and h = 3e-12 in
  let k = Kde.fit ~bandwidth:h [| x0; x0 |] in
  let check_rel msg expected actual =
    Alcotest.(check bool) msg true
      (Float.abs (actual -. expected) <= 1e-12 *. Float.abs expected)
  in
  List.iter
    (fun dz ->
      let x = x0 +. (dz *. h) in
      let phi = exp (-0.5 *. dz *. dz) /. sqrt (2.0 *. Float.pi) in
      check_rel "pdf" (phi /. h)
        (Kde.evaluate k [| x |]).(0))
    [ -3.0; -1.0; 0.0; 0.5; 2.0; 4.0 ]

(* The windowed density must stay within 1e-12 RELATIVE error of the
   brute-force all-samples sum on a fig9-style grid, and [evaluate] on
   the grid must agree bitwise with one-point evaluations. *)
let test_kde_cutoff_accuracy () =
  let rng = Rng.create 5 in
  let xs = Array.init 200 (fun _ -> Dist.gaussian rng ~mu:2e-11 ~sigma:2e-12) in
  let k = Kde.fit xs in
  let h = Kde.bandwidth k in
  let n = float_of_int (Array.length xs) in
  let brute_pdf x =
    Array.fold_left
      (fun acc s ->
        let z = (x -. s) /. h in
        acc +. exp (-0.5 *. z *. z))
      0.0 xs
    /. (n *. h *. sqrt (2.0 *. Float.pi))
  in
  let pdf x = (Kde.evaluate k [| x |]).(0) in
  let grid = Kde.grid k 80 in
  Array.iter
    (fun x ->
      let bp = brute_pdf x in
      Alcotest.(check bool) "pdf within 1e-12 relative" true
        (Float.abs (pdf x -. bp) <= 1e-12 *. bp))
    grid;
  let fast = Kde.evaluate k grid in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) "evaluate bitwise equals pdf" true
        (Int64.bits_of_float fast.(i) = Int64.bits_of_float (pdf x)))
    grid;
  (* Non-ascending grids fall back to the per-point path. *)
  let shuffled = Array.copy grid in
  let r = Rng.create 7 in
  Rng.shuffle r shuffled;
  let slow = Kde.evaluate k shuffled in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) "shuffled grid matches pdf" true
        (Int64.bits_of_float slow.(i) = Int64.bits_of_float (pdf x)))
    shuffled

let test_rng_split_ix () =
  let parent = Rng.create 42 in
  let before = (Rng.uint64 (Rng.split_ix parent 0), Rng.uint64 (Rng.split_ix parent 1)) in
  (* Pure: deriving children does not advance the parent, and the same
     index always yields the same stream. *)
  let again = (Rng.uint64 (Rng.split_ix parent 0), Rng.uint64 (Rng.split_ix parent 1)) in
  Alcotest.(check bool) "deterministic per index" true (before = again);
  Alcotest.(check bool) "indices give distinct streams" true
    (fst before <> snd before);
  (* Children for nearby indices are pairwise distinct over a range. *)
  let seen = Hashtbl.create 64 in
  for ix = 0 to 63 do
    let v = Rng.uint64 (Rng.split_ix parent ix) in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen v);
    Hashtbl.replace seen v ()
  done;
  (* And the parent stream itself is unperturbed. *)
  let fresh = Rng.create 42 in
  Alcotest.(check bool) "parent unperturbed" true
    (Rng.uint64 parent = Rng.uint64 fresh)

(* The generator's stream, bit for bit: per seed, three [uint64] draws,
   two [float] draws (hex), four [int] draws (hex) at n = 1, 10,
   1_000_003 and [max_int], the saved state of
   [split_ix] children at ix = 0, 1, -3 and [max_int], and finally of
   the parent generator itself.  A change to any line changes every
   seeded design, population and stored artifact key. *)
let rng_golden_lines seed =
  let r = Rng.create seed in
  let u = List.init 3 (fun _ -> Printf.sprintf "%Lx" (Rng.uint64 r)) in
  let f = List.init 2 (fun _ -> Printf.sprintf "%h" (Rng.float r)) in
  let i =
    List.map
      (fun n -> Printf.sprintf "%x" (Rng.int r n))
      [ 1; 10; 1_000_003; max_int ]
  in
  let ix = List.map (fun ix -> Rng.save (Rng.split_ix r ix)) [ 0; 1; -3; max_int ] in
  (* One [uint64] draw between the children and the final state: the
     recorded final-state lines include it. *)
  ignore (Rng.uint64 r);
  (String.concat " " u :: String.concat " " f :: String.concat " " i :: ix)
  @ [ Rng.save r ]

let rng_golden =
  [
    ( 0,
      [
        "53175d61490b23df 61da6f3dc380d507 5c0fdf91ec9a7bfc";
        "0x1.775fc61ddf2cp-7 0x1.fb2813aebd296p-2";
        "0 3 cbd0a 25bed05011c4f87f";
        "be5248664bcd8505 7e8e5ec4bab289e9 a52aadc1aa93556c 884fa8e4e8ae15f";
        "365d8f45eb373efe bbf2715e5771d20a 1f9757ae3a0988d1 611c2e90505bf0c2";
        "1ed02e7c9ff61e2c d01efd15a549e786 66f0048d55d000d7 3360ec3889bc21cb";
        "31fbbd45b3da9f29 82691e8469cb18de 7a28e9c3b5b58913 382e8abca0f6b84f";
        "711ecb3a3813fcc5 7b4b4189a7ce6935 b2fee4cdfa3763ea ea1a7c84935df2d8";
      ] );
    ( 1,
      [
        "cfc5d07f6f03c29b bf424132963fe08d 19a37d5757aaf520";
        "0x1.7e10233e0b9aap-1 0x1.7a38c25c30c34p-3";
        "0 1 6f040 c5d72d98699a5e8";
        "58f1a87a17b2bcf8 5f67c9f1912fc9ff e691204fa5bacc65 f369e7318a642f53";
        "43b562fdd80e1aa8 b2790d4d1fcedc11 5af5573b74c6ad42 a579a0eeb4276b6d";
        "998a8a158cb3fd6 2210beb8b8e4d192 d1b8a0c3b55cf7c 790cc5ec20eafbb3";
        "cb90a26e3e418457 67ca4c02bec8b078 430ea9fbcc09fea1 21c2bf50a9f6f442";
        "5218d71bb6eec61b 6a437fdea2a8e8a1 5a97f8f54e237d37 702786175380f630";
      ] );
    ( (-7),
      [
        "f36c6e15ccc9fd7 9274d2c9b17cbd4a bb9969078e1a9521";
        "0x1.91e12ec6384d8p-3 0x1.9f1f40017c852p-1";
        "0 6 2b8a6 13e51bf44cfaa71";
        "a7ef4ed7d44b4c24 aca6894686d7a93d f17eb9050483bd2a 4e0bcd175d07866e";
        "88876c9e9fa355fc 933e92c193484dbf ee7ba0c8266d8b47 bb338d41b9c013a";
        "d9c5c29dde102454 9ebe71394a45049e f7e4c18b10a866c1 a47d61db06a8f411";
        "19a5af25f67b0c67 96ca6dd834bead5a 17ae890355191da5 dd7dc32c231e4259";
        "8f343dd2c644d9a9 e5b3b54656909059 2257c4e06b99085a 6de3477a92e798f1";
      ] );
    ( max_int,
      [
        "45fb48efb1c2c1c2 c3add3a798906624 1f94c7639c6d4438";
        "0x1.26520bc6cf804p-3 0x1.00f74e7e3aa6p-6";
        "0 0 6c3ff 2e85bcf04d0f874";
        "bccd26a0778cd87b f4665fa1f41d2802 37059c9323592fd9 726e24b7f3fd4e1c";
        "5456e785b01dd0ee 8807e05c0ea076fa c776e8ffb2737b5b 720137f5b91c133e";
        "baecc9df40a5c920 c5b8e71c021dea71 12d276e886a989d8 2fda53f55443f3c0";
        "ef15f20feca03e9b 37f3392d68cf9bfd 29dabaeb3ef994ed 9402ebe903dca1fa";
        "898cb1d72f769851 6e87464fd3b3be22 22467c3688cffb7 efbeb32d77f77766";
      ] );
  ]

let test_rng_golden_bits () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check (list string))
        (Printf.sprintf "stream of seed %d" seed)
        expected (rng_golden_lines seed);
      (* [restore] inverts [save]: the restored generator saves the same
         text and continues the same stream. *)
      let r = Rng.create seed in
      ignore (Rng.uint64 r);
      let s = Rng.save r in
      let back = Rng.restore s in
      Alcotest.(check string) "save (restore s) = s" s (Rng.save back);
      Alcotest.(check int64) "restored stream" (Rng.uint64 r) (Rng.uint64 back))
    rng_golden

let test_mvn_sample_n () =
  let rng = Rng.create 77 in
  let m = Mvn.make ~mu:[| 1.0 |] ~cov:(Mat.identity 1) in
  let xs = Mvn.sample_n m rng 500 in
  Alcotest.(check int) "count" 500 (Array.length xs);
  let flat = Array.map (fun v -> v.(0)) xs in
  check_close ~tol:0.2 "mean" 1.0 (Describe.mean flat)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in p" ~count:100
    QCheck.(pair (float_bound_exclusive 1.0) (float_bound_exclusive 1.0))
    (fun (p1, p2) ->
      let rng = Rng.create 61 in
      let xs = Array.init 200 (fun _ -> Rng.float rng) in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Describe.quantile xs lo <= Describe.quantile xs hi +. 1e-12)

let prop_lhs_inside_box =
  QCheck.Test.make ~name:"latin hypercube stays in box" ~count:50
    QCheck.(int_range 1 40)
    (fun n ->
      let rng = Rng.create (n + 100) in
      let pts = Sampling.latin_hypercube rng box2 n in
      Array.for_all (inside box2) pts)

let prop_mvn_samples_finite =
  QCheck.Test.make ~name:"mvn samples are finite" ~count:50
    QCheck.(int_range 1 5)
    (fun d ->
      let rng = Rng.create (d * 7) in
      let cov = Mat.add_ridge (Mat.identity d) 0.5 in
      let m = Mvn.make ~mu:(Vec.create d) ~cov in
      let s = (Mvn.sample_n m rng 1).(0) in
      Array.for_all Float.is_finite s)

let () =
  Alcotest.run "slc_prob"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniform moments" `Quick test_rng_uniform_moments;
          Alcotest.test_case "int buckets" `Quick test_rng_int;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independence;
          Alcotest.test_case "indexed split" `Quick test_rng_split_ix;
          Alcotest.test_case "golden bits" `Quick test_rng_golden_bits;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
        ] );
      ( "dist",
        [
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "gaussian KS" `Quick test_gaussian_ks;
          Alcotest.test_case "truncated bounds" `Quick
            test_truncated_gaussian_bounds;
          Alcotest.test_case "quantile roundtrip" `Quick
            test_gaussian_quantile_roundtrip;
        ] );
      ( "describe",
        [
          Alcotest.test_case "basic stats" `Quick test_describe_basic;
          Alcotest.test_case "quantile interpolation" `Quick
            test_describe_quantile_interp;
          Alcotest.test_case "covariance/correlation" `Quick
            test_covariance_correlation;
          Alcotest.test_case "covariance matrix" `Quick test_covariance_matrix;
          Alcotest.test_case "skewness sign" `Quick test_skewness_sign;
          QCheck_alcotest.to_alcotest prop_quantile_monotone;
        ] );
      ( "mvn",
        [
          Alcotest.test_case "sampling recovers parameters" `Quick
            test_mvn_sampling_recovers;
          Alcotest.test_case "borderline covariance repaired" `Quick
            test_mvn_repairs_borderline;
          QCheck_alcotest.to_alcotest prop_mvn_samples_finite;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "random box" `Quick test_random_box;
          Alcotest.test_case "LHS stratification" `Quick
            test_latin_hypercube_stratification;
          Alcotest.test_case "halton" `Quick test_halton_deterministic_and_spread;
          Alcotest.test_case "full factorial" `Quick test_full_factorial;
          Alcotest.test_case "unit mapping roundtrip" `Quick
            test_unit_mapping_roundtrip;
          QCheck_alcotest.to_alcotest prop_lhs_inside_box;
        ] );
      ( "density",
        [
          Alcotest.test_case "kde recovers gaussian" `Quick
            test_kde_gaussian_recovery;
          Alcotest.test_case "kde integrates to one" `Quick
            test_kde_integrates_to_one;
          Alcotest.test_case "kde bandwidth accessor" `Quick
            test_kde_bandwidth_accessor;
          Alcotest.test_case "kde closed-form single kernel" `Quick
            test_kde_closed_form_single_kernel;
          Alcotest.test_case "kde cutoff accuracy" `Quick
            test_kde_cutoff_accuracy;
          Alcotest.test_case "mvn sample_n" `Quick test_mvn_sample_n;
          Alcotest.test_case "ks two-sample" `Quick test_ks_two_sample;
        ] );
    ]
