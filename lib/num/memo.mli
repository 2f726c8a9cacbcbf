(** Domain-safe memo tables: the one cache primitive.

    Every reusable artifact the library builds once — trained
    predictors, compiled testbench templates, equivalent inverters,
    arc ids, server priors and populations — is cached through this
    module, so the locking discipline lives in one place.  The one
    measured exception is the per-query oracle answer cache
    ([Slc_ssta.Oracle.cache]), a flat float table whose hits must be
    cheap next to the table lookup they save; it keeps this discipline:

    - look the key up under the table's mutex and release it;
    - on a miss, run the build {e outside} any lock (builds may run
      simulations through the worker pool and must not serialize on
      the table);
    - publish first-build-wins: if another caller published a value
      for the key meanwhile, return that value and discard this one.

    Every caller therefore sees one value per key.  Concurrent first
    misses may each run the build, so builds must be deterministic (a
    discarded duplicate then never changes results; only accounting
    such as a miss counter can see it).  A build that raises publishes
    nothing: the exception reaches the caller and a later call builds
    again.

    The memo is deliberately {e not} single-flight — later callers
    never wait for a build already running.  A pool task that waited on
    a build running on a systhread could deadlock: that build's own
    {!Parallel.map} blocks on the pool's submission mutex, which the
    waiting task's submitter holds. *)

type ('k, 'v) t

val create :
  ?counters:Slc_obs.Telemetry.counter * Slc_obs.Telemetry.counter ->
  unit ->
  ('k, 'v) t
(** An empty table behind one mutex.  Keys are hashed and compared
    structurally.  [?counters] is a [(hits, misses)] pair incremented
    on every lookup. *)

val find_or_build : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_build t key build] is the value published for [key],
    running [build ()] first if there is none. *)

val length : ('k, 'v) t -> int
[@@slc.test_only
  "the publication rule: concurrent misses publish one value per key \
   and a failed build publishes nothing"]
(** Number of published keys. *)
