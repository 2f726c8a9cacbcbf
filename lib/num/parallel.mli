(** Data-parallel maps over a persistent pool of worker domains.

    The first parallel map lazily spawns a process-wide pool of
    long-lived domains (an [at_exit] hook joins them).  Work items are
    claimed in chunks from an atomic counter, so scheduling is dynamic
    but the mapping from item index to result slot is fixed: results
    are bitwise independent of how many domains participate.

    Tasks must be pure (or touch only atomic/thread-safe state — the
    simulator's run counter is atomic).

    The default width comes from [SLC_DOMAINS] when set ([1] disables
    parallelism entirely), else [Domain.recommended_domain_count],
    capped at 8 — and is then clamped to the hardware's parallelism:
    idle domains beyond the core count slow the WHOLE process down
    (every minor collection is a stop-the-world handshake across all
    live domains), so default-width maps never oversubscribe.  Passing
    [?domains] explicitly bypasses the clamp — a deliberate
    oversubscription, used by tests to exercise the pool machinery on
    any host. *)

(** Raised when more than one work item fails in a single map.  The
    first component is the failure with the smallest item index; the
    rest follow in index order.  A map in which exactly one item fails
    re-raises that item's exception unwrapped. *)
exception Failures of exn * exn list

val domain_count : unit -> int

val map : ?domains:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f xs] is [Array.map f xs] computed by up to [?domains]
    participants (the calling domain plus pool workers).  [?chunk]
    bounds how many consecutive indices a participant claims at a time
    (default [n / (8 d)], at least 1).  Runs sequentially when the
    effective width is 1, when [xs] has fewer than two elements, or
    when called from inside a pool task (nested maps never re-enter
    the pool).  Exceptions from work items cancel the remaining items
    and are re-raised in the caller — unwrapped for a single failing
    item, as [Failures] otherwise. *)

val try_map :
  ?domains:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Like {!map}, but a failing item yields [Error] in its own slot
    instead of cancelling the batch: every item is always attempted.
    The graceful-degradation primitive — callers inspect which items
    survived and proceed on those. *)

val sequential : (unit -> 'a) -> 'a
(** [sequential f] runs [f] with pool entry disabled: every [map]
    below it executes inline on the calling domain.  Used to obtain a
    reference sequential execution for determinism checks. *)

(** Per-domain state slots, for worker-owned caches and scratch
    workspaces.  A slot holds one value per domain, created on first
    access from that domain; pool workers are long-lived, so slot
    state persists across successive maps. *)
module Slot : sig
  type 'a t

  val make : (unit -> 'a) -> 'a t
  (** [make init] declares a slot; [init] runs once per domain, on
      that domain, at first [get]. *)

  val get : 'a t -> 'a
  (** This domain's instance. *)
end
