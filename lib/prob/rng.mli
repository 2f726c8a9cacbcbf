(** Deterministic pseudo-random number generation.

    xoshiro256++ seeded through splitmix64.  Every stochastic routine in
    this project takes an explicit [Rng.t] so that all experiments are
    reproducible from a single integer seed.

    The state is kept unboxed: the four 64-bit limbs live in one
    32-byte buffer, so a draw ({!uint64} aside, which returns a boxed
    [int64]) allocates nothing but its boxed float result, {!int}
    allocates nothing, and {!split_ix} allocates only the
    child's buffer.  The streams and the {!save} text are fixed bit for
    bit; the test_prob "golden bits" case pins them. *)

type t

val create : int -> t
(** [create seed] builds a generator from an integer seed (any value,
    including 0, is fine — the state is expanded through splitmix64). *)

val split_ix : t -> int -> t
(** [split_ix rng ix] derives the independent sub-generator number
    [ix] from [rng]'s current state {e without} advancing [rng]: the
    result depends only on (state, [ix]).  This is the scheduling-proof
    way to give each work item of a parallel map its own stream —
    results stay bitwise identical for any domain count or claim
    order. *)

val save : t -> string
(** The full generator state as text (four hex limbs) — the exact
    point in the stream, not the original integer seed.  Persisting it
    lets a resumed process rebuild the generator {e as it was}, which
    is what makes checkpoint/resume of randomized designs
    deterministic: the artifact store keys random fitting designs by
    this state, so a resume with the same generator reproduces the
    same designs bit for bit. *)

val restore : string -> t
[@@slc.test_only
  "save is the full generator state: the restored generator continues \
   the saved stream, so a store key built from save names the stream"]
(** Inverse of {!save}; raises [Invalid_argument] on malformed
    input. *)

val uint64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [0, 1) with 53-bit resolution. *)

val uniform : t -> lo:float -> hi:float -> float

val int : t -> int -> int
(** [int rng n] is uniform in [0, n-1]; requires [n > 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
