type lm_result = {
  x : Vec.t;
  cost : float;
  iterations : int;
  converged : bool;
  residual_norm : float;
  non_finite_steps : int;
}

let numeric_jacobian ?(rel_step = 1e-6) f x =
  let r0 = f x in
  let m = Array.length r0 and n = Array.length x in
  let jac = Mat.create m n in
  for j = 0 to n - 1 do
    let h = rel_step *. Float.max 1.0 (Float.abs x.(j)) in
    let xj = x.(j) in
    x.(j) <- xj +. h;
    let r1 = f x in
    x.(j) <- xj;
    for i = 0 to m - 1 do
      Mat.set jac i j ((r1.(i) -. r0.(i)) /. h)
    done
  done;
  jac

let half_sq_norm r = 0.5 *. Vec.dot r r

(* Scratch buffers for one Levenberg–Marquardt solve, sized by the
   parameter count.  A caller fitting many models of the same size (the
   per-seed extraction loop) allocates one workspace per worker domain
   and reuses it: the normal-equation matrices and solve vectors are
   then allocation-free.  The residual/Jacobian closures remain the
   caller's. *)
type lm_workspace = {
  mutable lw_n : int;
  mutable lw_jtj : Mat.t;
  mutable lw_a : Mat.t;
  mutable lw_l : Mat.t;
  mutable lw_jtr : Vec.t;
  mutable lw_njtr : Vec.t;
  mutable lw_y : Vec.t;
  mutable lw_dx : Vec.t;
  mutable lw_x_try : Vec.t;
}

let lm_workspace () =
  {
    lw_n = 0;
    lw_jtj = Mat.create 0 0;
    lw_a = Mat.create 0 0;
    lw_l = Mat.create 0 0;
    lw_jtr = [||];
    lw_njtr = [||];
    lw_y = [||];
    lw_dx = [||];
    lw_x_try = [||];
  }

let lm_ensure ws n =
  if ws.lw_n <> n then begin
    ws.lw_n <- n;
    ws.lw_jtj <- Mat.create n n;
    ws.lw_a <- Mat.create n n;
    ws.lw_l <- Mat.create n n;
    ws.lw_jtr <- Array.make n 0.0;
    ws.lw_njtr <- Array.make n 0.0;
    ws.lw_y <- Array.make n 0.0;
    ws.lw_dx <- Array.make n 0.0;
    ws.lw_x_try <- Array.make n 0.0
  end

let levenberg_marquardt ?workspace ?(max_iter = 200) ?(xtol = 1e-12)
    ?(ftol = 1e-14) ?(lambda0 = 1e-3) ?jacobian ~residuals ~x0 () =
  let jac_of =
    match jacobian with
    | Some j -> j
    | None -> fun x -> numeric_jacobian residuals x
  in
  let ws = match workspace with Some ws -> ws | None -> lm_workspace () in
  let n = Array.length x0 in
  lm_ensure ws n;
  let x = Vec.copy x0 in
  let lambda = ref lambda0 in
  let cost = ref (half_sq_norm (residuals x)) in
  let iter = ref 0 in
  let converged = ref false in
  let non_finite = ref 0 in
  while (not !converged) && !iter < max_iter do
    incr iter;
    let r = residuals x in
    let j = jac_of x in
    Mat.gram_into j ws.lw_jtj;
    Mat.tmul_vec_into j r ws.lw_jtr;
    for i = 0 to n - 1 do
      ws.lw_njtr.(i) <- -.ws.lw_jtr.(i)
    done;
    (* Try a damped step; increase damping until the cost decreases. *)
    let stepped = ref false in
    let attempts = ref 0 in
    while (not !stepped) && !attempts < 25 do
      incr attempts;
      Mat.add_ridge_into ws.lw_jtj !lambda ws.lw_a;
      let solved =
        try
          Linalg.cholesky_into ws.lw_a ws.lw_l;
          Linalg.cholesky_solve_into ws.lw_l ws.lw_njtr ~y:ws.lw_y
            ~x:ws.lw_dx;
          true
        with Linalg.Singular _ -> false
      in
      if not solved then lambda := !lambda *. 10.0
      else begin
        let dx = ws.lw_dx in
        let x_try = ws.lw_x_try in
        for i = 0 to n - 1 do
          x_try.(i) <- x.(i) +. dx.(i)
        done;
        let cost_try = half_sq_norm (residuals x_try) in
        if not (Float.is_finite cost_try) then begin
          (* An overflowing model evaluation yields a NaN/inf cost that
             compares false on every branch; without this rejection the
             damping schedule can spin to its attempt cap at every
             iteration.  Reject immediately and raise the damping. *)
          incr non_finite;
          Slc_obs.Telemetry.incr Slc_obs.Telemetry.lm_non_finite;
          lambda := !lambda *. 10.0
        end
        else if cost_try < !cost || not (Float.is_finite !cost) then begin
          (* Accept; relax the damping. *)
          let step_rel = Vec.norm2 dx /. Float.max 1e-30 (Vec.norm2 x) in
          let cost_rel = (!cost -. cost_try) /. Float.max 1e-300 !cost in
          Array.blit x_try 0 x 0 (Array.length x);
          cost := cost_try;
          lambda := Float.max 1e-12 (!lambda /. 3.0);
          stepped := true;
          if step_rel < xtol || cost_rel < ftol then converged := true
        end
        else lambda := !lambda *. 10.0
      end
    done;
    if not !stepped then converged := true
  done;
  Slc_obs.Telemetry.add Slc_obs.Telemetry.lm_iters !iter;
  let r = residuals x in
  {
    x;
    cost = half_sq_norm r;
    iterations = !iter;
    converged = !converged;
    residual_norm = Vec.norm2 r;
    non_finite_steps = !non_finite;
  }
