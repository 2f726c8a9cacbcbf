(** Levenberg–Marquardt nonlinear least squares: parameter extraction
    (LM on model residuals) and MAP estimation (LM on prior-augmented
    residuals). *)

type lm_result = {
  x : Vec.t;            (** optimal parameter vector *)
  cost : float;         (** 0.5 * ||r(x)||^2 at the optimum *)
  iterations : int;
  converged : bool;
  residual_norm : float;
  non_finite_steps : int;
      (** trial steps rejected because the model evaluation produced a
          non-finite cost (overflow/NaN); a non-zero value means the
          fit walked along the edge of the model's numeric range *)
}

val numeric_jacobian :
  ?rel_step:float -> (Vec.t -> Vec.t) -> Vec.t -> Mat.t
[@@slc.test_only
  "the default Jacobian of levenberg_marquardt, checked against a \
   closed form"]
(** Forward-difference Jacobian of a residual function; [rel_step]
    defaults to [1e-6] of each component's magnitude (floored). *)

type lm_workspace
(** Reusable scratch buffers (normal-equation matrices, solve vectors)
    for {!levenberg_marquardt}.  A workspace belongs to one domain at a
    time; callers fitting many same-sized models keep one per worker
    and thread it through the loop.  Buffers are (re)sized on use, so a
    single workspace also serves fits of varying parameter count. *)

val lm_workspace : unit -> lm_workspace

val levenberg_marquardt :
  ?workspace:lm_workspace ->
  ?max_iter:int ->
  ?xtol:float ->
  ?ftol:float ->
  ?lambda0:float ->
  ?jacobian:(Vec.t -> Mat.t) ->
  residuals:(Vec.t -> Vec.t) ->
  x0:Vec.t ->
  unit ->
  lm_result
(** Minimizes [0.5 * ||residuals x||^2] starting from [x0].

    Uses a damped Gauss–Newton step with multiplicative damping update
    (Marquardt's strategy).  When [jacobian] is omitted a forward-difference
    Jacobian is used.  Defaults: [max_iter = 200], [xtol = 1e-12]
    (step-size tolerance relative to parameter norm), [ftol = 1e-14]
    (relative cost decrease), [lambda0 = 1e-3].

    Passing [?workspace] reuses caller-owned scratch buffers across
    calls; results are bitwise identical with and without it (the
    workspace variants of the underlying kernels replicate the
    allocating operation order exactly). *)

