type t = { times : Slc_num.Interp.axis; values : Slc_num.Vec.t }

let make ~times ~values =
  if Array.length times <> Array.length values then
    Slc_obs.Slc_error.invalid_input ~site:"Waveform.make" "length mismatch";
  if Array.length times < 2 then
    Slc_obs.Slc_error.invalid_input ~site:"Waveform.make" "need at least 2 samples";
  match Slc_num.Interp.axis times with
  | Some times -> { times; values }
  | None ->
    Slc_obs.Slc_error.invalid_input ~site:"Waveform.make" "times must be strictly increasing"

let times w = (w.times :> Slc_num.Vec.t)

let value_at w t =
  let times = times w in
  let n = Array.length times in
  if t <= times.(0) then w.values.(0)
  else if t >= times.(n - 1) then w.values.(n - 1)
  else Slc_num.Interp.linear1d w.times w.values t

let final_value w = w.values.(Array.length w.values - 1)

type direction = Rising | Falling

let cross_time w ?after dir level =
  let times = times w in
  let start = match after with Some t -> t | None -> times.(0) in
  let n = Array.length times in
  let rec go i =
    if i >= n - 1 then None
    else begin
      let t1 = times.(i) and t2 = times.(i + 1) in
      if t2 < start then go (i + 1)
      else begin
        let v1 = w.values.(i) and v2 = w.values.(i + 1) in
        let crosses =
          match dir with
          | Rising -> v1 < level && v2 >= level
          | Falling -> v1 > level && v2 <= level
        in
        if crosses then begin
          let tc = t1 +. ((level -. v1) *. (t2 -. t1) /. (v2 -. v1)) in
          if tc >= start then Some tc else go (i + 1)
        end
        else go (i + 1)
      end
    end
  in
  go 0

let measure_delay ~input ~output ~vdd ~out_dir =
  let half = 0.5 *. vdd in
  let in_cross =
    match cross_time input Rising half with
    | Some t -> Some t
    | None -> cross_time input Falling half
  in
  match in_cross with
  | None -> None
  | Some t_in -> (
    match cross_time output ~after:t_in out_dir half with
    | Some t_out -> Some (t_out -. t_in)
    | None -> (
      (* The output may start moving slightly before the input midpoint
         (strong Miller kick); accept an earlier crossing too. *)
      match cross_time output out_dir half with
      | Some t_out -> Some (t_out -. t_in)
      | None -> None))

let measure_slew w ~vdd dir =
  let lo = 0.2 *. vdd and hi = 0.8 *. vdd in
  match dir with
  | Rising -> (
    match cross_time w Rising lo with
    | None -> None
    | Some t1 -> (
      match cross_time w ~after:t1 Rising hi with
      | None -> None
      | Some t2 -> Some ((t2 -. t1) /. 0.6)))
  | Falling -> (
    match cross_time w Falling hi with
    | None -> None
    | Some t1 -> (
      match cross_time w ~after:t1 Falling lo with
      | None -> None
      | Some t2 -> Some ((t2 -. t1) /. 0.6)))

let settled w ~vdd ~target ~tol_frac =
  Float.abs (final_value w -. target) <= tol_frac *. vdd
