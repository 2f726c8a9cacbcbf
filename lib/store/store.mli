(** Persistent, content-addressed characterization artifact store with
    checkpoint/resume.

    The paper's headline economics (≥15× fewer simulator runs than a
    LUT flow) assume the expensive work — prior learning, per-seed MAP
    extraction, table building — is paid {e once} and reused.  All the
    in-process caches ([Harness] compiled netlists, [Oracle]'s trained
    bank) die with the process; this module is the across-process tier:
    a directory of versioned text artifacts keyed by a content hash of
    everything that determines the result.

    {b Correctness contract: bitwise identity.}  An artifact loaded
    from the store — or a population resumed from a checkpoint after a
    crash — produces results bit-for-bit equal to a single fresh
    process computing the same thing, including [train_cost]
    accounting.  Floats are stored in the exact hexadecimal encoding
    ({!Slc_num.Hexfloat}); predictors are rebuilt from their
    serialized {!Slc_core.Char_flow.model} through the same closure
    constructors training uses.

    {b Content addressing.}  A key is the MD5 of a canonical rendering
    of every input that can change the artifact: the on-disk format
    version, a technology fingerprint (device templates, variability,
    input box — not just the name, so temperature/Vt variants do not
    collide), the arc, the method (for Bayes, a digest of the full
    serialized prior), the fitting design (for random designs, the
    exact generator state via {!Slc_prob.Rng.save}), the seed set, and
    the budgets.  Changing any of these changes the key, so a stale
    artifact is never served — invalidation is automatic and the store
    needs no coherence protocol.

    {b Crash safety.}  Every artifact, and every checkpoint header, is
    written to a temporary name in the same directory and atomically
    renamed into place, so a reader can never observe a
    partially-written artifact.  A checkpoint grows by appended batch
    records, each carrying its length and an MD5 digest: a crash can
    leave a torn last record, and resuming drops it (and anything after
    a damaged record) instead of reading it.
    See [docs/store.md] for the on-disk format specification. *)

type t
(** An opened store rooted at a directory. *)

val open_ : string -> t
(** [open_ dir] opens (creating if necessary) a store rooted at [dir].
    A fresh or empty directory is initialized with a version marker;
    an existing store's marker is checked.  Raises
    {!Slc_obs.Slc_error.Store_failed} with [Store_version_mismatch]
    when the marker declares a different format version or the
    directory exists with unrelated content, and with [Store_corrupt]
    when the marker is unreadable. *)

type key = string
(** 32-character hex content hash. *)

exception Stored_failure of string
(** Replays a persisted seed failure: exceptions do not round-trip
    through disk, so a [Seed_failed e] loaded from the store carries
    [Stored_failure m] where [m] is [e]'s rendered message. *)

(** {2 Priors} *)

val prior_fingerprint : Slc_core.Prior.pair -> string
(** Content digest of the fully serialized prior (mean, covariance,
    β(ξ) grid, provenance).  Two priors with equal fingerprints give
    bitwise-equal MAP fits — this is the prior component of every
    Bayes-method key. *)

val put_prior : t -> key:key -> Slc_core.Prior.pair -> unit
[@@slc.test_only
  "get_prior's persist step; the tests round-trip a small prior \
   through it bitwise"]

val find_prior : t -> key:key -> Slc_core.Prior.pair option
[@@slc.test_only
  "get_prior's load step; the tests pin that a damaged prior artifact \
   raises Store_corrupt"]
(** [None] when absent.  Raises [Store_failed] ([Store_corrupt]) when
    present but unparseable. *)

val get_prior : t -> historical:Slc_device.Tech.t list -> Slc_core.Prior.pair
(** Load-or-learn: {!find_prior} under a key of the historical nodes
    (in list order, at the default cell set and grid levels), falling
    back to
    [Prior.learn_pair ~historical ()] and persisting the result. *)

val prior_source :
  t option -> Slc_device.Tech.t -> Slc_core.Prior.pair
(** [prior_source store] is where a process's target priors come from:
    a function returning the prior learned from
    [Tech.historical_for tech], built once per technology name and then
    returned physically the same.  With a store it loads (or learns and
    persists) through {!get_prior}; without one it runs
    [Prior.learn_pair].  Each [prior_source store] is a fresh memo, so
    a caller that wants one learn per node holds one source. *)

(** {2 Trained per-arc predictors (the [Oracle.bayes_bank] tier)} *)

val predictor_key :
  ?gpr:float ->
  prior_fp:string ->
  tech:Slc_device.Tech.t ->
  arc:Slc_cell.Arc.t ->
  k:int ->
  seed:Slc_device.Process.seed option ->
  unit ->
  key
(** [?gpr] is the GPR-fallback residual threshold when the caller
    trains with one ({!Slc_core.Char_flow.with_gpr_fallback}); it
    changes which model gets trained, so it participates in the key.
    [None] (no fallback) keeps keys byte-identical to the pre-GPR
    format — existing stores stay warm. *)

val put_predictor : t -> key:key -> Slc_core.Char_flow.predictor -> unit
[@@slc.test_only
  "get_predictor's persist step; the tests round-trip every model kind \
   through it bitwise"]
(** Persists the predictor's {!Slc_core.Char_flow.model} (analytical
    parameter pairs, NLDM tables and GPR training sets all round-trip
    exactly via {!Slc_num.Hexfloat}).  Raises [Invalid_argument] for
    an [Opaque] model. *)

val find_predictor :
  ?seed:Slc_device.Process.seed ->
  t ->
  key:key ->
  tech:Slc_device.Tech.t ->
  arc:Slc_cell.Arc.t ->
  Slc_core.Char_flow.predictor option
[@@slc.test_only
  "get_predictor's load step; the tests pin that a damaged predictor \
   artifact raises Store_corrupt"]
(** Rebuilds the predictor with
    {!Slc_core.Char_flow.predictor_of_model}; predictions are bitwise
    identical to the stored predictor's.  [?seed] must be the seed the
    predictor was trained under (it participates in the key, so a
    mismatch simply misses). *)

val get_predictor :
  t ->
  key:key ->
  seed:Slc_device.Process.seed option ->
  tech:Slc_device.Tech.t ->
  arc:Slc_cell.Arc.t ->
  (unit -> Slc_core.Char_flow.predictor) ->
  Slc_core.Char_flow.predictor
(** Load-or-train: {!find_predictor} under [key] (with [seed] the seed
    the predictor is trained under), counting a telemetry
    [store_hits]; on a miss, counts [store_misses], calls the trainer
    and persists its predictor with {!put_predictor}. *)

(** {2 Characterized libraries (NLDM/Liberty tier)} *)

val library_key :
  seed:Slc_device.Process.seed option ->
  tech:Slc_device.Tech.t ->
  cells:string list ->
  levels:int array ->
  key

val put_library : t -> key:key -> Slc_cell.Library.t -> unit

val find_library :
  ?tech:Slc_device.Tech.t -> t -> key:key -> Slc_cell.Library.t option
(** [?tech] is passed through to {!Slc_cell.Library.of_string} (needed
    for technology cards not registered by name). *)

(** {2 Statistical populations with checkpoint/resume} *)

val population_key :
  method_:Slc_core.Statistical.method_ ->
  design:Slc_core.Statistical.design ->
  tech:Slc_device.Tech.t ->
  arc:Slc_cell.Arc.t ->
  seeds:Slc_device.Process.seed array ->
  budget:int ->
  min_points:int ->
  key
[@@slc.test_only
  "the key extract_population stores under: the tests locate its \
   checkpoint and final artifacts through it"]
(** For [Random_per_seed] designs the key captures the generator's
    exact state ({!Slc_prob.Rng.save}) — a resumed run must be handed
    a generator in the same state to reach the same artifact. *)

type outcome =
  | Hit  (** served entirely from the final artifact: zero simulations *)
  | Computed of {
      resumed_seeds : int;
          (** seeds recovered from a checkpoint (zero simulations) *)
      computed_seeds : int;  (** seeds simulated and fitted by this call *)
      batches : int;         (** checkpoint batches this call ran *)
    }

val extract_population :
  ?min_points:int ->
  ?batch_size:int ->
  ?after_batch:(int -> unit) ->
  store:t ->
  method_:Slc_core.Statistical.method_ ->
  design:Slc_core.Statistical.design ->
  tech:Slc_device.Tech.t ->
  arc:Slc_cell.Arc.t ->
  seeds:Slc_device.Process.seed array ->
  budget:int ->
  unit ->
  Slc_core.Statistical.population * outcome
(** Store-backed [Statistical.extract_population_design].

    - If the final artifact exists, it is loaded and no simulation
      runs ({!Hit}).
    - Otherwise the intact records of the checkpoint are resumed, and
      the seeds they miss (all of them, on a cold store) are processed
      in batches of [batch_size] (default 4) through
      {!Slc_core.Statistical.extract_seed_models}; after every batch
      one record is appended to the checkpoint and flushed, so a crash
      costs at most one batch of re-simulation.
    - On completion the final artifact is written and the checkpoint
      removed.

    The returned population is bitwise identical to
    [Statistical.extract_population_design] run fresh in one process:
    per-seed designs key off [Process.index] (not batch position), so
    batching, resuming, and loading cannot perturb any seed's fit, and
    [train_cost] sums the deterministic per-batch simulator-run
    deltas.  [after_batch] is called with the number of batches
    completed so far — tests use it to inject crashes at exact
    checkpoint boundaries.

    [seeds] must be indexed by [Process.index] (as
    [Process.sample_batch] produces).  Raises [Store_failed] on a
    corrupt final artifact; an unreadable checkpoint record is
    dropped, with every record after it, and its seeds recomputed. *)

val find_population :
  store:t ->
  method_:Slc_core.Statistical.method_ ->
  design:Slc_core.Statistical.design ->
  tech:Slc_device.Tech.t ->
  arc:Slc_cell.Arc.t ->
  seeds:Slc_device.Process.seed array ->
  budget:int ->
  min_points:int ->
  Slc_core.Statistical.population option
[@@slc.test_only
  "a peek at the final artifact extract_population writes; the tests \
   check when it exists"]
(** Peek: the finished population if its artifact exists, without
    computing anything. *)

(** {2 Introspection} *)

val artifact_path : t -> [ `Prior | `Predictor | `Library | `Population ] -> key -> string
[@@slc.test_only
  "where the store keeps an artifact: the tests damage, truncate and \
   inspect the files"]
(** Absolute path an artifact of the given kind lives at (whether or
    not it currently exists). *)
