(** Delay/slew oracles: the interface between timing analysis and a
    characterized library.  An oracle answers "delay and output slew of
    this arc at this input condition" — from the compact Bayesian
    model, from an NLDM table, or straight from the simulator (for
    validation). *)

type t = {
  query : Slc_cell.Arc.t -> Slc_cell.Harness.point -> float * float;
      (** [(delay, output slew)] *)
  label : string;
}

val of_predictors :
  label:string ->
  (Slc_cell.Arc.t -> Slc_core.Char_flow.predictor) ->
  t
[@@slc.test_only
  "the per-arc memoized oracle bayes_bank builds on; the tests drive \
   its memo with constant and counting predictors"]
(** Backed by per-arc predictors (e.g. {!Slc_core.Char_flow.train_bayes});
    the function is called once per distinct arc and memoized.

    The memo is an {!Slc_num.Memo}, so concurrent queries (the
    characterization server's connections) are safe.  Builds must be
    deterministic — concurrent misses on the same arc may build more
    than once, and every caller then sees the single published
    value. *)

val of_library : Slc_cell.Library.t -> t
(** Backed by interpolated NLDM tables; raises [Not_found] when queried
    for an arc the library does not contain. *)

val of_simulator :
  ?seed:Slc_device.Process.seed -> Slc_device.Tech.t -> t
[@@slc.test_only
  "SSTA ground truth: a transient simulation per query, which the \
   model-based oracles are checked against"]
(** Ground truth: every query is one transient simulation. *)

val bayes_bank :
  ?seed:Slc_device.Process.seed ->
  ?store:Slc_store.Store.t ->
  ?gpr_fallback:float ->
  prior:Slc_core.Prior.pair ->
  Slc_device.Tech.t ->
  k:int ->
  t
(** Convenience: an oracle that trains a Bayesian/MAP predictor with
    [k] simulations for each arc on first use.

    With [?gpr_fallback] (a mean-|relative-error| threshold), each
    arc's analytical MAP fit is checked against its own [k]-point
    training dataset and replaced by a nonparametric GPR model
    ({!Slc_core.Char_flow.with_gpr_fallback}) when the 4-parameter
    form fits poorly — the low-Vdd/break-point regime.  The threshold
    participates in both cache tiers' keys; without it, behaviour and
    store keys are byte-identical to earlier releases.

    Trained predictors are cached process-wide, keyed by (prior
    {e physical identity}, technology name, [k], [seed], arc name,
    fallback threshold):
    rebuilding a [bayes_bank] value with the same learned prior object
    reuses the existing predictors and costs zero simulations.
    Training is deterministic, so the cache never changes results.

    With [?store], a second {e persistent} tier sits behind the
    in-process cache: an arc missing from the process cache is looked
    up in the artifact store — keyed by prior {e content}
    ({!Slc_store.Store.prior_fingerprint}), technology fingerprint,
    arc, [k] and [seed] — and only trained (then persisted) when the
    store misses too.  A later process querying the same bank pays
    zero simulations, and the rebuilt predictors answer bitwise
    identically to freshly trained ones. *)

(** {2 Query-result caching}

    An exact cache pays only where a query costs more than a probe of
    it.  Per query, on one core of a 2-vCPU container (best of five
    sweeps; n28, INV/NAND2/NOR2):

    - a direct {!of_library} query against the 2x2x2 library: 31–60 ns
      (over the 332 910 queries of the 100k-gate benchmark design);
    - a direct {!bayes_bank} query ([k = 3]): 85–130 ns at one supply,
      0.30–0.42 µs with a supply per query (0.63–0.91 µs while each
      query rebuilt the arc's equivalent inverter twice for its
      [Ieff]);
    - a warm {!cached} hit: 124–245 ns; a cold miss, the query and its
      insert included: 0.4–0.6 µs over a table, 1.1–1.7 µs over the
      old [bayes_bank];
    - an {!of_simulator} query: one transient simulation, about
      160 µs.

    So an [Sdag] pass, whose queries run at one supply and barely
    repeat, queries its oracle directly.  The characterization
    server's engine keeps a cache in front of each bank: its requests
    repeat exact keys at many supplies, where a hit is the cheaper
    answer.  A caller timing {!of_simulator} more than once wraps it
    too. *)

type cache
(** A mutable, domain-safe map from (arc, point) to query results.
    Oracle queries are pure, so an identical query can reuse the first
    answer — a pass re-run on a persistent cache, a repeated served
    request.  Within one SSTA pass keys hardly repeat: every gate's
    output load is its own, so a cold pass over a generated design
    misses on every query. *)

val make_cache : unit -> cache
(** An empty exact cache: keys are the arc ({!Slc_cell.Arc.id}) and the
    point's coordinates compared by their bits, so results are bitwise
    identical to the uncached oracle and [0.0] and [-0.0] are distinct
    keys.  The table is flat — one mutex and one open-addressing
    [float array] of (arc, sin, cload, vdd, td, sout) slots that starts
    small and doubles at 3/4 load — so a hit allocates nothing but its
    returned pair.  It holds at most {!max_cache_size} entries: a full
    table at its largest size starts over empty instead of doubling,
    and a dropped key is queried again on its next miss.

    Unlike the library's other caches this is not an {!Slc_num.Memo}:
    a boxed, structurally hashed key made a hit cost more than the
    NLDM lookup it saves.  It keeps [Memo]'s discipline — the
    underlying query runs outside the lock and the first published
    answer wins — and counts [oracle_hits]/[oracle_misses]. *)

val cached : cache -> t -> t
(** [cached c oracle] wraps [oracle] so queries go through [c].  A
    cache may outlive the wrapper and be shared across analyses (only
    meaningful while the underlying oracle answers consistently). *)

val cache_size : cache -> int
(** Number of distinct memoized queries. *)

val max_cache_size : int
[@@slc.test_only
  "the bound a cache stops at: the test checks it is reached and never \
   exceeded"]
(** The most entries a cache holds: 49 152, 3/4 of 65 536 slots. *)
