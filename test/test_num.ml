(* Unit and property tests for the numerical foundation library. *)

open Slc_num

let check_float = Alcotest.(check (float 1e-9))

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basic () =
  let v = Array.of_list [ 1.0; 2.0; 3.0 ] in
  check_float "mean" 2.0 (Vec.mean v);
  check_float "dot" 14.0 (Vec.dot v v);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 v);
  check_float "max" 3.0 (Array.fold_left Float.max v.(0) v)

let test_vec_ops () =
  let a = Array.of_list [ 1.0; 2.0 ] and b = Array.of_list [ 3.0; 5.0 ] in
  Alcotest.(check bool)
    "add" true
    (Helpers.vec_close (Vec.add a b) (Array.of_list [ 4.0; 7.0 ]));
  Alcotest.(check bool)
    "sub" true
    (Helpers.vec_close (Vec.sub b a) (Array.of_list [ 2.0; 3.0 ]));
  Alcotest.(check bool)
    "scale" true
    (Helpers.vec_close (Vec.scale 2.0 a) (Array.of_list [ 2.0; 4.0 ]));
  let y = Vec.copy b in
  Vec.axpy 2.0 a y;
  Alcotest.(check bool)
    "axpy" true
    (Helpers.vec_close y (Array.of_list [ 5.0; 9.0 ]))

let test_vec_mismatch () =
  let a = Vec.create 2 and b = Vec.create 3 in
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.add a b))

let test_linspace () =
  let v = Vec.linspace 0.0 1.0 5 in
  Alcotest.(check int) "length" 5 (Vec.dim v);
  check_float "first" 0.0 v.(0);
  check_float "last" 1.0 v.(4);
  check_float "step" 0.25 v.(1)

(* ------------------------------------------------------------------ *)
(* Mat *)

let test_mat_mul () =
  let a = Helpers.mat_of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Helpers.mat_of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let test_mat_vec () =
  let a = Helpers.mat_of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let v = [| 1.0; 1.0 |] in
  Alcotest.(check bool)
    "mul_vec" true
    (Helpers.vec_close (Mat.mul_vec a v) [| 3.0; 7.0 |]);
  let out = Vec.create 2 in
  Mat.tmul_vec_into a v out;
  Alcotest.(check bool) "tmul_vec_into" true (Helpers.vec_close out [| 4.0; 6.0 |])

let test_mat_transpose_identity () =
  let a = Helpers.mat_of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Mat.rows t);
  check_float "t21" 6.0 (Mat.get t 2 1);
  let i3 = Mat.identity 3 in
  Alcotest.(check bool) "A*I = A" true (Helpers.mat_close (Mat.mul a i3) a)

let test_mat_helpers () =
  let a = Helpers.mat_of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric a);
  check_float "trace" 5.0 (Mat.trace a);
  let r = Mat.add_ridge a 0.5 in
  check_float "ridge" 2.5 (Mat.get r 0 0);
  check_float "ridge off-diag" 1.0 (Mat.get r 0 1)

(* ------------------------------------------------------------------ *)
(* Linalg *)

let random_spd rng n =
  let m =
    Mat.init n n (fun _ _ -> Slc_prob.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
  in
  Mat.add_ridge (Mat.mul (Mat.transpose m) m) (0.1 *. float_of_int n)

let test_cholesky_reconstruct () =
  let rng = Slc_prob.Rng.create 11 in
  for n = 1 to 6 do
    let a = random_spd rng n in
    let l = Linalg.cholesky a in
    let llt = Mat.mul l (Mat.transpose l) in
    Alcotest.(check bool)
      (Printf.sprintf "L L^T = A (n=%d)" n)
      true
      (Helpers.mat_close ~tol:1e-8 llt a)
  done

let test_cholesky_rejects () =
  let not_pd = Helpers.mat_of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "not PD"
    (Linalg.Singular "cholesky: not positive definite") (fun () ->
      ignore (Linalg.cholesky not_pd));
  let asym = Helpers.mat_of_rows [| [| 1.0; 2.0 |]; [| 0.0; 1.0 |] |] in
  Alcotest.check_raises "not symmetric"
    (Linalg.Singular "cholesky: matrix not symmetric") (fun () ->
      ignore (Linalg.cholesky asym))

let test_solve_spd () =
  let rng = Slc_prob.Rng.create 12 in
  for n = 1 to 6 do
    let a = random_spd rng n in
    let x_true = Vec.init n (fun i -> float_of_int (i + 1)) in
    let b = Mat.mul_vec a x_true in
    let x = Linalg.solve_spd a b in
    Alcotest.(check bool)
      (Printf.sprintf "solve_spd n=%d" n)
      true
      (Helpers.vec_close ~tol:1e-7 x x_true)
  done

(* A solve and a determinant through the in-place LU factors. *)
let lu_solve a b =
  let n = Mat.rows a in
  let f = Mat.copy a and perm = Array.make n 0 and x = Array.make n 0.0 in
  ignore (Linalg.lu_factor_in_place f perm);
  Linalg.lu_solve_in_place f perm ~b ~x;
  x

let lu_det a =
  let n = Mat.rows a in
  let f = Mat.copy a and perm = Array.make n 0 in
  let acc = ref (Linalg.lu_factor_in_place f perm) in
  for i = 0 to n - 1 do
    acc := !acc *. Mat.get f i i
  done;
  !acc

let test_lu_solve_and_det () =
  let a = Helpers.mat_of_rows [| [| 0.0; 2.0 |]; [| 3.0; 1.0 |] |] in
  (* Pivoting required: a(0,0) = 0. *)
  let x = lu_solve a [| 4.0; 5.0 |] in
  Alcotest.(check bool) "solve with pivot" true
    (Helpers.vec_close ~tol:1e-10 x [| 1.0; 2.0 |]);
  check_close ~tol:1e-10 "det" (-6.0) (lu_det a)

let test_inverse () =
  let rng = Slc_prob.Rng.create 13 in
  let a = random_spd rng 4 in
  let ai = Linalg.spd_inverse a in
  Alcotest.(check bool)
    "A * A^-1 = I" true
    (Helpers.mat_close ~tol:1e-8 (Mat.mul a ai) (Mat.identity 4));
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric ~tol:0.0 ai)

let test_triangular_solves () =
  let l = Helpers.mat_of_rows [| [| 2.0; 0.0 |]; [| 1.0; 3.0 |] |] in
  let x = Linalg.lower_solve l [| 4.0; 11.0 |] in
  Alcotest.(check bool) "lower" true (Helpers.vec_close x [| 2.0; 3.0 |]);
  let z = Helpers.mat_of_rows [| [| 0.0; 0.0 |]; [| 1.0; 3.0 |] |] in
  Alcotest.check_raises "zero diagonal"
    (Linalg.Singular "lower_solve: zero diagonal") (fun () ->
      ignore (Linalg.lower_solve z [| 1.0; 1.0 |]))

let test_least_squares () =
  (* Overdetermined consistent system: exact recovery. *)
  let a =
    Helpers.mat_of_rows [| [| 1.0; 1.0 |]; [| 1.0; 2.0 |]; [| 1.0; 3.0 |] |]
  in
  let x_true = [| 0.5; 2.0 |] in
  let b = Mat.mul_vec a x_true in
  let x = Linalg.solve_least_squares a b in
  Alcotest.(check bool) "exact" true (Helpers.vec_close ~tol:1e-6 x x_true)

let test_expm_diagonal () =
  let a = Mat.diag [| 1.0; -2.0; 0.0 |] in
  let e = Linalg.expm a in
  check_close ~tol:1e-12 "e^1" (exp 1.0) (Mat.get e 0 0);
  check_close ~tol:1e-12 "e^-2" (exp (-2.0)) (Mat.get e 1 1);
  check_close ~tol:1e-12 "e^0" 1.0 (Mat.get e 2 2);
  check_close ~tol:1e-14 "off-diagonal" 0.0 (Mat.get e 0 1)

let test_expm_nilpotent () =
  (* exp([[0,1],[0,0]]) = [[1,1],[0,1]] exactly. *)
  let a = Helpers.mat_of_rows [| [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |] in
  let e = Linalg.expm a in
  check_close ~tol:1e-13 "11" 1.0 (Mat.get e 0 0);
  check_close ~tol:1e-13 "12" 1.0 (Mat.get e 0 1);
  check_close ~tol:1e-13 "21" 0.0 (Mat.get e 1 0)

let test_expm_inverse_property () =
  (* exp(A) exp(-A) = I. *)
  let rng = Slc_prob.Rng.create 17 in
  let a = Mat.init 4 4 (fun _ _ -> Slc_prob.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let e = Linalg.expm a in
  let em = Linalg.expm (Mat.scale (-1.0) a) in
  Alcotest.(check bool) "exp(A)exp(-A)=I" true
    (Helpers.mat_close ~tol:1e-9 (Mat.mul e em) (Mat.identity 4))

let test_expm_rotation () =
  (* exp of a rotation generator gives cos/sin. *)
  let th = 0.7 in
  let a = Helpers.mat_of_rows [| [| 0.0; -.th |]; [| th; 0.0 |] |] in
  let e = Linalg.expm a in
  check_close ~tol:1e-12 "cos" (cos th) (Mat.get e 0 0);
  check_close ~tol:1e-12 "sin" (sin th) (Mat.get e 1 0)

let test_singular_raises () =
  let s = Helpers.mat_of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular SPD solve"
    (Linalg.Singular "cholesky: not positive definite") (fun () ->
      ignore (Linalg.solve_spd s [| 1.0; 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Interp *)

let axis a = Option.get (Interp.axis a)

let test_linear1d () =
  let xs = axis (Array.of_list [ 0.0; 1.0; 3.0 ]) in
  let ys = Array.of_list [ 0.0; 2.0; 4.0 ] in
  check_float "at node" 2.0 (Interp.linear1d xs ys 1.0);
  check_float "mid" 1.0 (Interp.linear1d xs ys 0.5);
  check_float "second cell" 3.0 (Interp.linear1d xs ys 2.0);
  (* Linear extrapolation beyond both ends. *)
  check_float "left extrap" (-2.0) (Interp.linear1d xs ys (-1.0));
  check_float "right extrap" 5.0 (Interp.linear1d xs ys 4.0)

let test_trilinear_exact_affine () =
  let f x y z = 1.0 +. x -. (2.0 *. y) +. (0.5 *. z) in
  let ax = Vec.linspace 0.0 1.0 3 in
  let g =
    {
      Interp.axes = (axis ax, axis ax, axis ax);
      values3 =
        Array.map (fun x -> Array.map (fun y -> Array.map (f x y) ax) ax) ax;
    }
  in
  check_close ~tol:1e-12 "interior" (f 0.3 0.7 0.9)
    (Interp.trilinear g 0.3 0.7 0.9)

(* An axis is validated once, when it is made: a flat, descending or
   empty array is refused there, so [locate] itself never scans. *)
let test_locate () =
  let four = axis (Array.of_list [ 0.0; 1.0; 2.0; 3.0 ]) in
  Alcotest.(check int) "below" 0 (Interp.locate four (-5.0));
  Alcotest.(check int) "above" 2 (Interp.locate four 10.0);
  Alcotest.(check int) "inside" 1 (Interp.locate four 1.5);
  Alcotest.(check int) "at node" 1 (Interp.locate four 1.0);
  (* The axis is a validated copy: writing the caller's array later
     cannot unsort it under [locate]. *)
  let src = [| 0.0; 1.0; 2.0; 3.0 |] in
  let copied = axis src in
  src.(1) <- 9.0;
  Alcotest.(check int) "caller's write does not reach the axis" 1
    (Interp.locate copied 1.5);
  let one = axis [| 0.5 |] in
  Alcotest.(check int) "singleton below" 0 (Interp.locate one 0.0);
  Alcotest.(check int) "singleton above" 0 (Interp.locate one 1.0);
  List.iter
    (fun (what, a) ->
      Alcotest.(check bool) what true (Interp.axis a = None))
    [ ("non-increasing", [| 1.0; 1.0 |]); ("descending", [| 2.0; 1.0 |]);
      ("empty", [||]); ("NaN", [| 0.0; Float.nan |]) ]

(* ------------------------------------------------------------------ *)
(* Optimize *)

let test_lm_rosenbrock_residuals () =
  (* Rosenbrock as a least-squares problem: r = (1-x, 10(y-x^2)). *)
  let residuals v = [| 1.0 -. v.(0); 10.0 *. (v.(1) -. (v.(0) *. v.(0))) |] in
  let r =
    Slc_num.Optimize.levenberg_marquardt ~residuals ~x0:[| -1.2; 1.0 |] ()
  in
  check_close ~tol:1e-5 "x" 1.0 r.Slc_num.Optimize.x.(0);
  check_close ~tol:1e-5 "y" 1.0 r.Slc_num.Optimize.x.(1)

let test_lm_linear_fit () =
  (* Fit y = a + b t through noiseless data: exact recovery. *)
  let ts = Vec.linspace 0.0 1.0 10 in
  let data = Array.map (fun t -> 2.0 +. (3.0 *. t)) ts in
  let residuals v =
    Array.mapi (fun i t -> v.(0) +. (v.(1) *. t) -. data.(i)) ts
  in
  let r = Slc_num.Optimize.levenberg_marquardt ~residuals ~x0:[| 0.0; 0.0 |] () in
  check_close ~tol:1e-6 "a" 2.0 r.Slc_num.Optimize.x.(0);
  check_close ~tol:1e-6 "b" 3.0 r.Slc_num.Optimize.x.(1);
  Alcotest.(check bool) "converged" true r.Slc_num.Optimize.converged

let test_lm_nan_cost_rejected () =
  (* Residuals are NaN everywhere but the starting point: every trial
     step must be rejected immediately as non-finite (no NaN may leak
     into the accepted state), the solver must terminate, and the
     rejections must be surfaced in the diagnostics. *)
  let residuals x =
    if Float.abs (x.(0) -. 1.0) < 1e-15 then [| 0.5 |] else [| Float.nan |]
  in
  let r =
    Slc_num.Optimize.levenberg_marquardt ~max_iter:5 ~residuals ~x0:[| 1.0 |] ()
  in
  check_close ~tol:1e-12 "stays at start point" 1.0 r.Slc_num.Optimize.x.(0);
  Alcotest.(check bool) "cost stays finite" true
    (Float.is_finite r.Slc_num.Optimize.cost);
  check_close ~tol:1e-12 "cost is the start cost" 0.125
    r.Slc_num.Optimize.cost;
  Alcotest.(check bool) "non-finite rejections surfaced" true
    (r.Slc_num.Optimize.non_finite_steps > 0)

let test_lm_nan_region_recovers () =
  (* A model with a NaN region next to the optimum: the fit must still
     converge from a start point whose early steps overshoot into it. *)
  let residuals x =
    [| (if x.(0) > 4.0 then Float.nan else x.(0) -. 3.0) |]
  in
  let r =
    Slc_num.Optimize.levenberg_marquardt ~residuals ~x0:[| 0.0 |] ()
  in
  Alcotest.(check bool) "converged" true r.Slc_num.Optimize.converged;
  check_close ~tol:1e-6 "optimum" 3.0 r.Slc_num.Optimize.x.(0)

let test_numeric_jacobian () =
  let f v = [| v.(0) *. v.(0); v.(0) *. v.(1) |] in
  let j = Slc_num.Optimize.numeric_jacobian f [| 2.0; 3.0 |] in
  check_close ~tol:1e-4 "d(x^2)/dx" 4.0 (Mat.get j 0 0);
  check_close ~tol:1e-4 "d(xy)/dy" 2.0 (Mat.get j 1 1);
  check_close ~tol:1e-4 "d(xy)/dx" 3.0 (Mat.get j 1 0)

(* ------------------------------------------------------------------ *)
(* Special *)

(* The erfc fit behind [normal_cdf], through erf x = 2 Phi(x sqrt 2) - 1
   and erfc x = 2 Phi(-x sqrt 2). *)
let test_erf_values () =
  let erf x = (2.0 *. Special.normal_cdf (x *. sqrt 2.0)) -. 1.0 in
  let erfc x = 2.0 *. Special.normal_cdf (-.x *. sqrt 2.0) in
  check_close ~tol:2e-7 "erf 0" 0.0 (erf 0.0);
  check_close ~tol:2e-7 "erf 1" 0.8427007929 (erf 1.0);
  check_close ~tol:2e-7 "erf -1" (-0.8427007929) (erf (-1.0));
  check_close ~tol:2e-7 "erfc 2" 0.0046777349 (erfc 2.0)

let test_normal_cdf_quantile_roundtrip () =
  List.iter
    (fun p ->
      let x = Special.normal_quantile p in
      check_close ~tol:1e-7
        (Printf.sprintf "cdf(quantile %g)" p)
        p (Special.normal_cdf x))
    [ 0.001; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]

(* In-place LU: must recover the known solution of random
   well-conditioned systems, and reject singular input. *)
let test_lu_in_place_matches_solve () =
  (* Small deterministic LCG so the test needs no RNG dependency. *)
  let state = ref 123456789 in
  let rand () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (float_of_int !state /. float_of_int 0x3FFFFFFF) -. 0.5
  in
  List.iter
    (fun n ->
      for _trial = 1 to 10 do
        (* Diagonally dominant => well-conditioned and non-singular. *)
        let a =
          Mat.init n n (fun i j ->
              if i = j then 4.0 +. float_of_int n +. rand () else rand ())
        in
        let expected = Array.init n (fun _ -> rand ()) in
        let b = Mat.mul_vec a expected in
        let fact = Mat.copy a in
        let perm = Array.make n 0 in
        let sign = Linalg.lu_factor_in_place fact perm in
        Alcotest.(check bool) "sign is +/-1" true (Float.abs sign = 1.0);
        let x = Array.make n 0.0 in
        Linalg.lu_solve_in_place fact perm ~b ~x;
        Array.iteri
          (fun i xi -> check_close ~tol:1e-9 "in-place = solution" expected.(i) xi)
          x;
        (* Residual sanity: a x ~ b. *)
        let r = Mat.mul_vec a x in
        Array.iteri (fun i ri -> check_close ~tol:1e-9 "residual" b.(i) ri) r
      done)
    [ 1; 2; 3; 5; 8 ]

let test_lu_in_place_singular () =
  let a = Helpers.mat_of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  let perm = Array.make 2 0 in
  Alcotest.check_raises "singular raises"
    (Linalg.Singular "lu_factor_in_place: singular matrix") (fun () ->
      ignore (Linalg.lu_factor_in_place a perm))

(* ------------------------------------------------------------------ *)
(* Parallel *)

let test_parallel_matches_sequential () =
  let xs = Array.init 103 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "forced 4 domains" (Array.map f xs)
    (Parallel.map ~domains:4 f xs);
  Alcotest.(check (array int)) "single domain" (Array.map f xs)
    (Parallel.map ~domains:1 f xs);
  Alcotest.(check (array int)) "empty" [||] (Parallel.map ~domains:4 f [||])

let test_parallel_propagates_exceptions () =
  let f x = if x = 37 then failwith "boom" else x in
  Alcotest.check_raises "task failure surfaces" (Failure "boom") (fun () ->
      ignore (Parallel.map ~domains:4 f (Array.init 64 (fun i -> i))))

let test_parallel_domain_count_env () =
  Alcotest.(check bool) "at least one" true (Parallel.domain_count () >= 1)

(* The dynamic scheduler must preserve result order even when task
   costs are wildly uneven (late indices cheap, early ones expensive),
   and must not lose elements when tasks outnumber domains. *)
let test_parallel_uneven_order_preserved () =
  let n = 257 in
  let xs = Array.init n (fun i -> i) in
  let f i =
    (* Early indices spin much longer than late ones. *)
    let spins = if i < 8 then 200_000 else 10 in
    let acc = ref 0 in
    for k = 1 to spins do
      acc := (!acc + (k * i)) land 0xFFFF
    done;
    (i * 2) + (!acc * 0)
  in
  Alcotest.(check (array int)) "order preserved under imbalance"
    (Array.map f xs)
    (Parallel.map ~domains:4 f xs)

let test_parallel_exception_in_spawned_domain () =
  (* Fail on the last index so a spawned (non-main) worker is likely to
     hit it under dynamic scheduling; the error must still surface. *)
  let f x = if x = 63 then failwith "late boom" else x in
  Alcotest.check_raises "late task failure surfaces" (Failure "late boom")
    (fun () -> ignore (Parallel.map ~domains:4 f (Array.init 64 (fun i -> i))))

(* The pool must produce results identical to a plain sequential
   Array.map regardless of how many domains participate. *)
let test_pool_identity_across_domain_counts () =
  let xs = Array.init 311 (fun i -> i) in
  let f x = (x * 31) land 0xFFF in
  let expected = Array.map f xs in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" d)
        expected
        (Parallel.map ~domains:d f xs))
    [ 1; 2; 8 ];
  Alcotest.(check (array int)) "sequential helper" expected
    (Parallel.sequential (fun () -> Parallel.map ~domains:8 f xs))

let test_pool_multiple_failures_aggregated () =
  (* Several items fail inside one claimed chunk (chunk = batch size,
     so a single participant runs them all): the primary exception is
     the smallest failing index, the rest ride along in index order. *)
  let f x = if x mod 16 = 5 then failwith (string_of_int x) else x in
  match Parallel.map ~domains:4 ~chunk:64 f (Array.init 64 (fun i -> i)) with
  | _ -> Alcotest.fail "expected Failures"
  | exception Parallel.Failures (Failure primary, rest) ->
    Alcotest.(check string) "primary is smallest index" "5" primary;
    Alcotest.(check (list string))
      "secondary failures in index order" [ "21"; "37"; "53" ]
      (List.map (function Failure m -> m | _ -> "?") rest)
  | exception e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)

let test_pool_reuse_across_maps () =
  (* Two successive maps reuse the same long-lived pool; a failing
     batch in between must not poison it. *)
  let xs = Array.init 97 (fun i -> i) in
  let first = Parallel.map ~domains:8 (fun x -> x + 1) xs in
  (try ignore (Parallel.map ~domains:8 (fun _ -> failwith "mid") xs)
   with _ -> ());
  let second = Parallel.map ~domains:8 (fun x -> x * 2) xs in
  Alcotest.(check (array int)) "first batch" (Array.map (fun x -> x + 1) xs) first;
  Alcotest.(check (array int)) "second batch after failure"
    (Array.map (fun x -> x * 2) xs)
    second

let test_pool_nested_map_runs_inline () =
  (* A task that itself calls Parallel.map must not deadlock waiting on
     pool workers that are all busy running the outer batch. *)
  let xs = Array.init 24 (fun i -> i) in
  let f x =
    Array.fold_left ( + ) 0
      (Parallel.map ~domains:8 (fun y -> x + y) (Array.init 5 Fun.id))
  in
  Alcotest.(check (array int)) "nested maps" (Array.map f xs)
    (Parallel.map ~domains:8 f xs)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_mat_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:50
    QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (r, c) ->
      let rng = Slc_prob.Rng.create ((r * 31) + c) in
      let m = Mat.init r c (fun _ _ -> Slc_prob.Rng.uniform rng ~lo:(-5.0) ~hi:5.0) in
      Helpers.mat_close (Mat.transpose (Mat.transpose m)) m)

let prop_det_of_product =
  QCheck.Test.make ~name:"det(AB) = det(A) det(B)" ~count:40
    QCheck.(int_range 1 5)
    (fun n ->
      let rng = Slc_prob.Rng.create (n * 131) in
      let mk () =
        Mat.add_ridge
          (Mat.init n n (fun _ _ -> Slc_prob.Rng.uniform rng ~lo:(-1.0) ~hi:1.0))
          1.5
      in
      let a = mk () and b = mk () in
      let lhs = lu_det (Mat.mul a b) in
      let rhs = lu_det a *. lu_det b in
      Float.abs (lhs -. rhs) < 1e-6 *. (1.0 +. Float.abs rhs))

let prop_cholesky_solve =
  QCheck.Test.make ~name:"spd solve residual is tiny" ~count:50
    QCheck.(int_range 1 7)
    (fun n ->
      let rng = Slc_prob.Rng.create (n * 977) in
      let a = random_spd rng n in
      let b = Vec.init n (fun i -> Slc_prob.Rng.uniform rng ~lo:(-2.0) ~hi:2.0 +. float_of_int i) in
      let x = Linalg.solve_spd a b in
      let r = Vec.sub (Mat.mul_vec a x) b in
      let norm_inf v = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 v in
      norm_inf r < 1e-7 *. (1.0 +. norm_inf b))

let prop_interp_between_nodes =
  QCheck.Test.make ~name:"linear1d inside hull of neighbours" ~count:100
    QCheck.(pair (float_bound_exclusive 1.0) (float_bound_exclusive 1.0))
    (fun (a, b) ->
      let xs = axis (Vec.linspace 0.0 1.0 5) in
      let ys = Array.map (fun x -> sin (6.0 *. (x +. a))) (xs :> float array) in
      let x = Float.max 0.0 (Float.min 1.0 b) in
      let v = Interp.linear1d xs ys x in
      let lo = Array.fold_left Float.min ys.(0) ys and hi = Array.fold_left Float.max ys.(0) ys in
      v >= lo -. 1e-12 && v <= hi +. 1e-12)

let prop_lm_quadratic_exact =
  QCheck.Test.make ~name:"LM solves linear least squares exactly" ~count:30
    QCheck.(pair (float_range (-3.0) 3.0) (float_range (-3.0) 3.0))
    (fun (a, b) ->
      let ts = Vec.linspace (-1.0) 1.0 8 in
      let data = Array.map (fun t -> a +. (b *. t)) ts in
      let residuals v =
        Array.mapi (fun i t -> v.(0) +. (v.(1) *. t) -. data.(i)) ts
      in
      let r = Slc_num.Optimize.levenberg_marquardt ~residuals ~x0:[| 0.0; 0.0 |] () in
      Float.abs (r.Slc_num.Optimize.x.(0) -. a) < 1e-5
      && Float.abs (r.Slc_num.Optimize.x.(1) -. b) < 1e-5)

(* ------------------------------------------------------------------ *)
(* Memo *)

let spin n =
  let acc = ref 0 in
  for k = 1 to n do
    acc := (!acc + k) land 0xFFFF
  done;
  ignore (Sys.opaque_identity !acc)

(* Cold concurrent misses may build more than once, but every caller
   must get the one published value, and a warm table builds nothing. *)
let test_memo_concurrent_misses () =
  let memo = Memo.create () in
  let builds = Atomic.make 0 in
  let get k =
    Memo.find_or_build memo k (fun () ->
        Atomic.incr builds;
        (* Widen the miss window so first lookups overlap in the build. *)
        spin 50_000;
        ref k)
  in
  let keys = Array.init 64 (fun i -> i mod 4) in
  let got = Parallel.map ~domains:4 ~chunk:1 get keys in
  Array.iteri
    (fun i k ->
      Alcotest.(check int) "built value" k !(got.(i));
      Alcotest.(check bool) "one published value per key" true
        (got.(i) == get k))
    keys;
  Alcotest.(check int) "four keys" 4 (Memo.length memo);
  let cold = Atomic.get builds in
  Alcotest.(check bool) "at least one build per key" true (cold >= 4);
  ignore (Parallel.map ~domains:4 ~chunk:1 get keys);
  Alcotest.(check int) "warm table builds nothing" cold (Atomic.get builds)

let test_memo_failed_build_not_cached () =
  let memo = Memo.create () in
  Alcotest.check_raises "build failure reaches the caller" (Failure "boom")
    (fun () -> ignore (Memo.find_or_build memo "k" (fun () -> failwith "boom")));
  Alcotest.(check int) "nothing published" 0 (Memo.length memo);
  Alcotest.(check int) "later call builds" 7
    (Memo.find_or_build memo "k" (fun () -> 7));
  Alcotest.(check int) "and publishes" 7
    (Memo.find_or_build memo "k" (fun () -> 8));
  Alcotest.(check int) "one entry" 1 (Memo.length memo)

let test_memo_counters () =
  let module T = Slc_obs.Telemetry in
  let was_on = T.on () in
  T.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_on then T.disable ())
    (fun () ->
      let memo = Memo.create ~counters:(T.oracle_hits, T.oracle_misses) () in
      let h0 = T.read T.oracle_hits and m0 = T.read T.oracle_misses in
      List.iter
        (fun k -> ignore (Memo.find_or_build memo k (fun () -> k)))
        [ 1; 2; 1; 1; 3 ];
      Alcotest.(check int) "hits" 2 (T.read T.oracle_hits - h0);
      Alcotest.(check int) "misses" 3 (T.read T.oracle_misses - m0))

let () =
  Alcotest.run "slc_num"
    [
      ( "vec",
        [
          Alcotest.test_case "basic reductions" `Quick test_vec_basic;
          Alcotest.test_case "arithmetic" `Quick test_vec_ops;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_mismatch;
          Alcotest.test_case "linspace/logspace" `Quick test_linspace;
        ] );
      ( "mat",
        [
          Alcotest.test_case "multiplication" `Quick test_mat_mul;
          Alcotest.test_case "matrix-vector" `Quick test_mat_vec;
          Alcotest.test_case "transpose/identity" `Quick
            test_mat_transpose_identity;
          Alcotest.test_case "helpers" `Quick test_mat_helpers;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "cholesky reconstructs" `Quick
            test_cholesky_reconstruct;
          Alcotest.test_case "cholesky rejects bad input" `Quick
            test_cholesky_rejects;
          Alcotest.test_case "SPD solve" `Quick test_solve_spd;
          Alcotest.test_case "LU solve with pivoting + det" `Quick
            test_lu_solve_and_det;
          Alcotest.test_case "in-place LU matches solve" `Quick
            test_lu_in_place_matches_solve;
          Alcotest.test_case "in-place LU rejects singular" `Quick
            test_lu_in_place_singular;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "triangular solves" `Quick test_triangular_solves;
          Alcotest.test_case "least squares" `Quick test_least_squares;
          Alcotest.test_case "singular raises" `Quick test_singular_raises;
          Alcotest.test_case "expm diagonal" `Quick test_expm_diagonal;
          Alcotest.test_case "expm nilpotent" `Quick test_expm_nilpotent;
          Alcotest.test_case "expm inverse property" `Quick
            test_expm_inverse_property;
          Alcotest.test_case "expm rotation" `Quick test_expm_rotation;
          QCheck_alcotest.to_alcotest prop_cholesky_solve;
          QCheck_alcotest.to_alcotest prop_mat_transpose_involution;
          QCheck_alcotest.to_alcotest prop_det_of_product;
        ] );
      ( "interp",
        [
          Alcotest.test_case "linear 1d" `Quick test_linear1d;
          Alcotest.test_case "trilinear exact on affine" `Quick
            test_trilinear_exact_affine;
          Alcotest.test_case "locate" `Quick test_locate;
          QCheck_alcotest.to_alcotest prop_interp_between_nodes;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "LM rosenbrock" `Quick test_lm_rosenbrock_residuals;
          Alcotest.test_case "LM linear fit" `Quick test_lm_linear_fit;
          Alcotest.test_case "LM NaN cost rejected" `Quick
            test_lm_nan_cost_rejected;
          Alcotest.test_case "LM NaN region recovers" `Quick
            test_lm_nan_region_recovers;
          Alcotest.test_case "numeric jacobian" `Quick test_numeric_jacobian;
          QCheck_alcotest.to_alcotest prop_lm_quadratic_exact;
        ] );
      ( "special",
        [
          Alcotest.test_case "erf values" `Quick test_erf_values;
          Alcotest.test_case "cdf/quantile roundtrip" `Quick
            test_normal_cdf_quantile_roundtrip;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_propagates_exceptions;
          Alcotest.test_case "uneven tasks keep order" `Quick
            test_parallel_uneven_order_preserved;
          Alcotest.test_case "exception from spawned domain" `Quick
            test_parallel_exception_in_spawned_domain;
          Alcotest.test_case "domain count" `Quick
            test_parallel_domain_count_env;
          Alcotest.test_case "identical across domain counts" `Quick
            test_pool_identity_across_domain_counts;
          Alcotest.test_case "multiple failures aggregated" `Quick
            test_pool_multiple_failures_aggregated;
          Alcotest.test_case "pool reused across maps" `Quick
            test_pool_reuse_across_maps;
          Alcotest.test_case "nested map runs inline" `Quick
            test_pool_nested_map_runs_inline;
        ] );
      ( "memo",
        [
          Alcotest.test_case "concurrent misses publish one value" `Quick
            test_memo_concurrent_misses;
          Alcotest.test_case "failed build not cached" `Quick
            test_memo_failed_build_not_cached;
          Alcotest.test_case "hit/miss counters" `Quick test_memo_counters;
        ] );
    ]
