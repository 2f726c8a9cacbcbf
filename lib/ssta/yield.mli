(** Timing yield: the fraction of process seeds whose worst path meets
    a clock constraint — the quantity SSTA exists to compute, evaluated
    here by pushing per-seed compact models through a DAG. *)

type result = {
  clock_period : float;
  n_seeds : int;
  n_pass : int;
  yield : float;             (** n_pass / n_seeds *)
  delays : float array;      (** per-seed worst arrival, s *)
  mean_delay : float;
  sigma_delay : float;
  worst_delay : float;
}

val of_delays : clock_period:float -> float array -> result
(** Classify pre-computed per-seed delays against a clock period. *)

val of_dag :
  population:(Slc_cell.Arc.t -> Slc_core.Statistical.population) ->
  seeds:Slc_device.Process.seed array ->
  clock_period:float ->
  Sdag.t ->
  input_arrivals:(string -> Sdag.arrival) ->
  outputs:Sdag.net list ->
  result
(** Monte-Carlo SSTA over a DAG: per seed, one forward pass with that
    seed's extracted per-arc models (no additional simulation), and the
    worst arrival over all listed outputs and both edges is classified
    against the clock.  A {!Slc_cell.Chain} path is timed through
    {!Sdag.of_chain}.
    Raises [Invalid_argument] when some seed produces no arrival at any
    output. *)

val required_period : result -> target_yield:float -> float
(** The clock period that would achieve [target_yield] (empirical
    quantile of the per-seed delays). *)

val pp : Format.formatter -> result -> unit
