(** Process-variation model.

    A {e seed} is one sampled process condition: global (inter-die)
    shifts shared by every device, plus a sub-seed from which local
    (Pelgrom) mismatch is drawn deterministically per device instance.
    Running the same seed twice therefore yields the same netlist — the
    property the statistical flow relies on when the same seed is
    simulated at several input conditions. *)

type seed = {
  index : int;           (** seed number within its Monte-Carlo batch *)
  dvt_n : float;         (** global NMOS threshold shift, V *)
  dvt_p : float;         (** global PMOS threshold shift, V *)
  dkp_rel : float;       (** global relative drive-factor shift *)
  dl_rel : float;        (** global relative channel-length shift *)
  dcpar_rel : float;     (** global relative parasitic-cap shift *)
  local_seed : int;      (** base for per-device local mismatch *)
}

val nominal : seed
(** The all-zero seed (no variation); [index = -1]. *)

type corner = Ss | Tt | Ff | Sf | Fs
(** Named global process corners: slow/typical/fast NMOS x PMOS, at
    the conventional 3-sigma global shifts. *)

val corner : Tech.t -> corner -> seed
(** Deterministic corner seed (no local mismatch): threshold shifted by
    +/- 3 sigma_vt_global and drive by -/+ 2 sigma_kp_rel per device
    polarity. *)

val sample_batch : Slc_prob.Rng.t -> Tech.t -> int -> seed array
(** [sample_batch rng tech n] draws [n] seeds indexed [0 .. n-1]. *)

val sample_batch_lhs : Slc_prob.Rng.t -> Tech.t -> int -> seed array
(** Latin-hypercube batch over the five global-variation dimensions:
    each dimension's Gaussian is stratified into [n] equal-probability
    slices, one seed per slice — same marginals as {!sample_batch},
    lower Monte-Carlo variance for population statistics. *)

val local_dvt : seed -> Tech.t -> device_index:int -> Mosfet.params -> float
[@@slc.test_only
  "the local threshold shift apply adds to a device; the tests pin its \
   determinism per (seed, device) and its Pelgrom scaling"]
(** Deterministic local threshold shift of the device with the given
    instance index: N(0, (avt / sqrt (W L))^2) drawn from a stream keyed
    by [(local_seed, device_index)]. *)

val apply : seed -> Tech.t -> device_index:int -> Mosfet.params -> Mosfet.params
(** Applies global and local variations to a device template. *)

val cpar_scale : seed -> float
(** Multiplier for parasitic capacitances under this seed. *)
