(** Gaussian belief propagation across technology nodes.

    The paper's prior pools all historical nodes at once.  This module
    implements the sequential alternative the title alludes to: a
    Gaussian belief over the model-parameter mean is passed from the
    oldest node to the newest, updated at each node with that node's
    extracted parameter population, and inflated by a drift term
    between nodes (technology evolution).  The resulting message at the
    end of the chain can replace the pooled prior — see the
    [ablation_chain] bench.

    The chain is the one propagation topology.  A technology-family DAG
    (n45 → n40, then n40 feeding both n32 and n28, both feeding n20)
    was measured against it and lost on the n14 Td error
    (EXPERIMENTS.md § Ablations). *)

type message = {
  mu : Slc_num.Vec.t;
  cov : Slc_num.Mat.t;
}

val chain : (string * Slc_num.Vec.t array) list -> message
[@@slc.test_only
  "the fold chain_prior runs: the tests pin it bit for bit, and the \
   shrink and growth of its covariance"]
(** Folds a drift step and then an observation over nodes ordered
    oldest first, starting from a near-uninformative belief (zero mean,
    diagonal covariance 10.0); each element is (node name, extracted
    parameter vectors).  The drift adds a diagonal process-evolution
    covariance sized to typical node-to-node parameter movement
    (Kalman-style prediction).  The observation is a conjugate update
    of the mean-belief with the node's population: its mean is treated
    as an observation of the underlying mean with covariance [S/n]
    (sample covariance over population size; a single row assumes a
    diagonal spread of 0.01; no rows leave the belief unchanged).
    Rejects an empty list. *)

val chain_prior : Prior.t -> ordered:string list -> Prior.t
(** Rebuilds a {!Prior.t} whose Gaussian component comes from chain
    propagation over the prior's own provenance (grouped by technology,
    ordered as given — unknown names are skipped, nodes without data are
    skipped); β(ξ) is kept.  Costs no additional simulations. *)
