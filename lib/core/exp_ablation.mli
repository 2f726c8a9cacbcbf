(** Ablations of the design choices DESIGN.md calls out:

    - input-dependent precision β(ξ) vs a constant precision;
    - choice of historical nodes feeding the prior (bias–variance
      tradeoff discussed in Section IV of the paper);
    - pooled prior vs sequential belief-chain propagation across
      nodes.

    Every driver that takes [~prior] expects [tech]'s prior learned
    from [Tech.historical_for tech] (the five other nodes), learned
    once by the caller and shared between drivers. *)

type row = {
  variant : string;
  k : int;
  td_err : float;  (** mean delay error over arcs *)
}

val ablation_beta :
  config:Config.t ->
  ?tech:Slc_device.Tech.t ->
  prior:Prior.pair ->
  unit ->
  row list
(** MAP error at small k with [prior]'s learned β(ξ) versus its
    input-averaged constant. *)

val ablation_history :
  config:Config.t ->
  ?tech:Slc_device.Tech.t ->
  prior:Prior.pair ->
  unit ->
  row list
(** Prior learned from similar nodes (adjacent geometry), all five
    nodes ([prior] itself), and dissimilar (oldest) nodes only.  The
    two 2-node priors are learned here. *)

val ablation_design :
  config:Config.t ->
  ?tech:Slc_device.Tech.t ->
  prior:Prior.pair ->
  ?n_draws:int ->
  unit ->
  row list
(** Curated (identifiability-oriented) versus random fitting
    conditions, for both the Bayes and LSE extractions.  Random rows
    average over [n_draws] (default 5) independent draws.  This
    quantifies how much of the LSE baseline's small-k failure in the
    paper stems from random point placement. *)

type complexity_row = {
  cell : string;
  err4 : float;   (** dense-grid fit error of the 4-parameter model *)
  err5 : float;   (** same with the Sin*Cload cross term added *)
}

val ablation_model_complexity :
  ?tech:Slc_device.Tech.t -> unit -> complexity_row list
(** The paper's Section-III tradeoff: model accuracy versus degree of
    data compression, 4 vs 5 parameters. *)

val print_complexity : Format.formatter -> complexity_row list -> unit

type sampling_row = {
  estimator : string;
  mean_ratio : float;  (** mean σ̂ / reference σ (bias indicator) *)
  rep_sd : float;      (** rep-to-rep relative spread of σ̂ (precision) *)
}

val ablation_sampling :
  ?tech:Slc_device.Tech.t ->
  ?n_seeds:int ->
  ?n_reps:int ->
  unit ->
  sampling_row list
(** Monte-Carlo versus Latin-hypercube process sampling: both estimate
    µ(Td) and σ(Td) at a few conditions with [n_seeds] seeds, repeated
    [n_reps] times; a large MC batch provides the bias reference.
    Empirically LHS tightens the mean estimate (stratified marginals)
    but not the sigma estimate — variance is not a mean of an additive
    function, so stratification offers no guarantee there. *)

val print_sampling : Format.formatter -> sampling_row list -> unit

val ablation_chain :
  config:Config.t ->
  ?tech:Slc_device.Tech.t ->
  prior:Prior.pair ->
  unit ->
  row list
(** Pooled Gaussian [prior] versus {!Belief.chain_prior} of it over
    nodes ordered oldest-to-newest. *)

val print_rows : Format.formatter -> title:string -> row list -> unit
