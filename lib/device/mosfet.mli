(** Smooth alpha-power-law MOSFET compact model.

    The drain current combines: a softplus gate-overdrive (giving a
    subthreshold exponential tail and a smooth turn-on), the alpha-power
    saturation current [Idsat = kp * (W/L) * Vov^alpha], a [tanh]
    linear-to-saturation transition and first-order channel-length
    modulation.  The model is symmetric in source/drain and is C^1 in all
    terminal voltages — a requirement for the Newton transient solver.

    This stands in for the proprietary BSIM kits of the paper: it exposes
    the same knobs the paper's timing model abstracts ([Ieff], [Vt],
    drive strength, parasitics) while remaining cheap and robust. *)

type polarity = Nmos | Pmos

type params = {
  polarity : polarity;
  w : float;  (** channel width, m *)
  l : float;  (** channel length, m *)
  vt : float; (** threshold-voltage magnitude, V (>= 0 for both types) *)
  kp : float; (** drive factor, A/V^alpha (multiplied by W/L) *)
  alpha : float;      (** velocity-saturation exponent, typically 1.2–2 *)
  theta : float;      (** softplus smoothing width, V (~ n kT/q) *)
  vsat_frac : float;  (** Vdsat = vsat_frac * Vov + vdsat_floor *)
  lambda : float;     (** channel-length modulation, 1/V *)
  cg : float;         (** gate capacitance per width, F/m *)
  cj : float;         (** drain/source junction capacitance per width, F/m *)
}

val scale_width : params -> float -> params
(** [scale_width p f] multiplies the width by [f] (> 0). *)

val at_temperature : params -> celsius:float -> params
(** Standard first-order temperature scaling from the 25 C reference:
    mobility (drive factor) degrades as [(T/T0)^-1.3] in kelvin and the
    threshold drops by 1 mV/K; the subthreshold smoothing width tracks
    [kT/q].  Hot silicon is slower at nominal supply (mobility wins),
    which is the behaviour timing signoff assumes. *)

type eval = {
  id : float;   (** current entering the drain terminal, A *)
  d_vg : float; (** partial derivatives of [id] w.r.t. terminal voltages *)
  d_vd : float;
  d_vs : float;
}

val channel_current : params -> vgs:float -> vds:float -> float
[@@slc.test_only
  "the channel current ieff averages and eval differentiates; the \
   device tests check its physics"]
(** Intrinsic channel current for an NMOS-convention device with
    [vds >= 0]; this is the quantity used by {!ieff}. *)

val eval : params -> vg:float -> vd:float -> vs:float -> eval
[@@slc.test_only "the bitwise reference for eval_into"]
(** Terminal current and derivatives at the given absolute node voltages
    (handles source/drain swap and PMOS mirroring internally). *)

type eval_buf = {
  mutable b_id : float;
  mutable b_vg : float;
  mutable b_vd : float;
  mutable b_vs : float;
}
(** Mutable destination for {!eval_into}.  All-float record, so it is
    stored flat and repeated evaluations into it never allocate. *)

val make_eval_buf : unit -> eval_buf

val eval_into : params -> vg:float -> vd:float -> vs:float -> eval_buf -> unit
(** Same results as {!eval}, written into [eval_buf] instead of a fresh
    record.  This is the allocation-free entry point used by the
    transient simulator's Newton loop; the two paths agree bit-for-bit. *)

val ieff : params -> vdd:float -> float
(** Effective switching current, paper Eq. 4:
    [(Id(Vdd, Vdd/2) + Id(Vdd/2, Vdd)) / 2]. *)

val cgate : params -> float
(** Total gate capacitance [cg * w], F. *)

val cjunction : params -> float
(** Drain junction capacitance [cj * w], F. *)
