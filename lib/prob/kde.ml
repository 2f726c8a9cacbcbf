type t = {
  samples : float array; (* sorted ascending *)
  h : float;
  inv_h : float;
  pdf_norm : float; (* 1 / (n h sqrt(2 pi)) *)
}

(* Gaussian kernel terms beyond 8 bandwidths are below exp(-32) ~ 1.3e-14
   of the peak; dropping them perturbs the density far less than 1e-12
   relatively on any grid that overlaps the data (the fig9 grids span
   the sample range +- 3 bandwidths). *)
let pdf_cutoff = 8.0

let silverman_bandwidth xs =
  let n = Array.length xs in
  if n < 2 then Slc_obs.Slc_error.invalid_input ~site:"Kde.silverman_bandwidth" "need >= 2 samples";
  let s = Describe.std xs in
  let iqr = Describe.quantile xs 0.75 -. Describe.quantile xs 0.25 in
  let spread =
    if iqr > 0.0 then Float.min s (iqr /. 1.34)
    else if s > 0.0 then s
    else 1e-12
  in
  0.9 *. spread *. (float_of_int n ** (-0.2))

let fit ?bandwidth xs =
  if Array.length xs < 2 then Slc_obs.Slc_error.invalid_input ~site:"Kde.fit" "need >= 2 samples";
  let h =
    match bandwidth with
    | Some h when h > 0.0 -> h
    | Some _ -> Slc_obs.Slc_error.invalid_input ~site:"Kde.fit" "bandwidth must be > 0"
    | None -> silverman_bandwidth xs
  in
  let samples = Array.copy xs in
  Array.sort Float.compare samples;
  let n = float_of_int (Array.length samples) in
  {
    samples;
    h;
    inv_h = 1.0 /. h;
    pdf_norm = 1.0 /. (n *. h *. sqrt (2.0 *. Float.pi));
  }

let bandwidth t = t.h

(* First index whose sample is >= x (the window's left edge). *)
let lower_bound a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let pdf_window t x ~lo ~hi =
  let acc = ref 0.0 in
  for i = lo to hi - 1 do
    let z = (x -. t.samples.(i)) *. t.inv_h in
    acc := !acc +. exp (-0.5 *. z *. z)
  done;
  !acc *. t.pdf_norm

let pdf t x =
  let cut = pdf_cutoff *. t.h in
  let lo = lower_bound t.samples (x -. cut) in
  let n = Array.length t.samples in
  let hi_x = x +. cut in
  let hi = ref lo in
  while !hi < n && t.samples.(!hi) <= hi_x do
    incr hi
  done;
  pdf_window t x ~lo ~hi:!hi

let is_ascending xs =
  let ok = ref true in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) < xs.(i - 1) then ok := false
  done;
  !ok

let evaluate t xs =
  if not (is_ascending xs) then Array.map (pdf t) xs
  else begin
    (* Single pass: for an ascending grid the +-8h window only moves
       right, so the two window edges advance monotonically instead of
       being re-searched per point.  The inner summation is the same as
       [pdf]'s, so both paths agree bitwise. *)
    let n = Array.length t.samples in
    let cut = pdf_cutoff *. t.h in
    let lo = ref 0 and hi = ref 0 in
    Array.map
      (fun x ->
        let lo_x = x -. cut and hi_x = x +. cut in
        while !lo < n && t.samples.(!lo) < lo_x do
          incr lo
        done;
        if !hi < !lo then hi := !lo;
        while !hi < n && t.samples.(!hi) <= hi_x do
          incr hi
        done;
        pdf_window t x ~lo:!lo ~hi:!hi)
      xs
  end

let grid t ?(pad = 3.0) n =
  let lo, hi = Describe.min_max t.samples in
  Slc_num.Vec.linspace (lo -. (pad *. t.h)) (hi +. (pad *. t.h)) n
