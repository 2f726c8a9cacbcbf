(** Structured error taxonomy for the characterization pipeline.

    The simulator and harness used to abort with bare-string exceptions
    ([No_convergence "run: step size underflow"]) that carried nothing a
    caller could act on.  The exceptions here are typed values: every
    convergence failure records where the solver was (phase, simulated
    time, step size, Newton iteration, residual norm), which recovery
    rungs were attempted, and — once the harness has annotated it — the
    full characterization context (arc, technology, process seed,
    ξ-point).

    This module sits below [Slc_num] and therefore cannot mention arcs
    or technologies by type; context fields are plain names and
    numbers, filled in by the layer that knows them. *)

type context = {
  arc : string option;   (** timing-arc name, e.g. "NOR2/A/fall" *)
  tech : string option;  (** technology node name, e.g. "n28" *)
  seed : int option;     (** process-seed index; [None] = nominal *)
  point : (float * float * float) option;
      (** input condition ξ = (Sin s, Cload F, Vdd V) *)
}

val no_context : context
(** All fields [None]; the raw solver raises with this and the harness
    re-raises with the fields filled in. *)

(** {2 Precondition violations}

    The typed replacement for the bare [Invalid_argument]/[Failure]
    raises that used to pepper the domain layers.  [iv_site] is the
    "Module.function" the caller misused, [iv_detail] the specific
    precondition.  Raised with an empty context; the harness layer fills
    it in through {!with_context} when the violation surfaces from
    inside a characterization run.  The [slc_lint] R1 rule forbids new
    raw raises outside [lib/num]; see [docs/lint.md]. *)

type invalid = { iv_site : string; iv_detail : string; iv_context : context }

exception Invalid_input of invalid

val invalid : site:string -> string -> invalid
[@@slc.test_only
  "the exact payload invalid_input raises, for tests asserting on the \
   typed error a precondition violation surfaces as"]
(** Build an {!invalid} payload with {!no_context}. *)

val invalid_input : site:string -> string -> 'a
(** [invalid_input ~site detail] raises {!Invalid_input} with
    {!no_context}. *)

val invalid_message : invalid -> string

type phase =
  | Dc_operating_point  (** initial DC solve *)
  | Transient_step      (** time-stepping loop *)

type convergence = {
  phase : phase;
  time_reached : float;  (** last accepted simulation time, s *)
  dt : float;            (** step size at the failure, s (0 for DC) *)
  newton_iters : int;    (** Newton iterations of the failing attempt *)
  residual : float;      (** residual inf-norm at the last iterate, A *)
  recovery : string list;
      (** escalation-ladder rungs attempted before giving up, in
          order; [[]] means the failure was raised before recovery *)
  detail : string;       (** human-readable failure site *)
  context : context;
}

exception No_convergence of convergence
(** A Newton/transient solve failed after every applicable recovery
    rung.  Replaces the old [Transient.No_convergence of string]. *)

val convergence_message : convergence -> string
(** One-line rendering with every diagnostic field, for logs. *)

type sim_failure = {
  sf_detail : string;    (** what the harness was trying to measure *)
  sf_retries : int;      (** window-extension retries performed *)
  sf_window : float;     (** last measurement window tried, s *)
  sf_cause : convergence option;
      (** present when the failure was a solver non-convergence rather
          than an uncapturable edge *)
  sf_context : context;
}

exception Simulation_failed of sim_failure
(** The harness could not produce a measurement: either the output edge
    was never captured within the retry budget, or the solver failed.
    Replaces the old [Harness.Simulation_failed of string]. *)

val sim_failure_message : sim_failure -> string

val raise_no_convergence :
  ?recovery:string list ->
  phase:phase ->
  time_reached:float ->
  dt:float ->
  newton_iters:int ->
  residual:float ->
  string ->
  'a
(** Raise {!No_convergence} with {!no_context} (context is attached by
    the harness layer). *)

val with_context : context -> (unit -> 'a) -> 'a
(** Runs the thunk; if it raises {!No_convergence} or
    {!Simulation_failed} with an empty context, re-raises the same
    failure with the given context attached.  A non-empty context is
    left untouched (the innermost annotation wins). *)

(** {2 Artifact-store faults}

    The persistent characterization store ([Slc_store]) raises typed
    faults instead of leaking raw parse exceptions: callers can tell a
    store written by an incompatible code version apart from on-disk
    corruption or from being handed a directory that is not a store at
    all. *)

type store_fault_kind =
  | Store_version_mismatch
      (** the directory (or an artifact in it) declares an on-disk
          format version this build does not speak *)
  | Store_corrupt
      (** an artifact exists but cannot be parsed — truncated, hand-
          edited, or damaged.  Checkpoints are exempt: an unreadable
          checkpoint is silently discarded (it only costs recompute),
          a final artifact is not (it silently loses paid-for work) *)
  | Store_key_mismatch
      (** an artifact's embedded key disagrees with the path it was
          found under — the store was manually rearranged *)

type store_fault = {
  st_path : string;   (** offending file or directory *)
  st_kind : store_fault_kind;
  st_detail : string; (** human-readable specifics *)
}

exception Store_failed of store_fault

val store_fault_message : store_fault -> string

val raise_store_failed :
  path:string -> kind:store_fault_kind -> string -> 'a
