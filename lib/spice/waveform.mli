(** Simulated waveforms and timing measurements. *)

type t = { times : Slc_num.Interp.axis; values : Slc_num.Vec.t }
(** Sampled voltage-vs-time trace; [times] strictly increasing (checked
    once, by {!make}), equal lengths. *)

val make : times:Slc_num.Vec.t -> values:Slc_num.Vec.t -> t

val value_at : t -> float -> float
[@@slc.test_only
  "samples a simulated waveform where the tests evaluate an exact \
   linear-circuit response"]
(** Linear interpolation; clamps outside the simulated interval. *)

val final_value : t -> float

type direction = Rising | Falling

val cross_time : t -> ?after:float -> direction -> float -> float option
(** [cross_time w dir level] is the first time (after [after], default
    the trace start) at which the waveform crosses [level] in the given
    direction, linearly interpolated. *)

val measure_delay :
  input:t -> output:t -> vdd:float -> out_dir:direction -> float option
(** 50%-to-50% propagation delay: output 50% crossing minus input 50%
    crossing (input direction is the opposite of [out_dir] for an
    inverting stage; the input crossing is searched in both
    directions). *)

val measure_slew : t -> vdd:float -> direction -> float option
(** Output transition time: 20%–80% crossing interval divided by 0.6
    (extrapolated full-swing).  With this convention a pure linear ramp
    of duration [T] has slew exactly [T]. *)

val settled : t -> vdd:float -> target:float -> tol_frac:float -> bool
(** Whether the final value is within [tol_frac * vdd] of [target]. *)
