let mean xs =
  if Array.length xs = 0 then Slc_obs.Slc_error.invalid_input ~site:"Describe.mean" "empty sample";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then Slc_obs.Slc_error.invalid_input ~site:"Describe.variance" "need >= 2 samples";
  let m = mean xs in
  let acc = Array.fold_left (fun a x -> a +. ((x -. m) ** 2.0)) 0.0 xs in
  acc /. float_of_int (n - 1)

let std xs = sqrt (variance xs)

let central_moment xs k =
  let m = mean xs in
  Array.fold_left (fun a x -> a +. ((x -. m) ** float_of_int k)) 0.0 xs
  /. float_of_int (Array.length xs)

let skewness xs =
  let n = Array.length xs in
  if n < 3 then Slc_obs.Slc_error.invalid_input ~site:"Describe.skewness" "need >= 3 samples";
  let m2 = central_moment xs 2 and m3 = central_moment xs 3 in
  let g1 = m3 /. (m2 ** 1.5) in
  let nf = float_of_int n in
  g1 *. sqrt (nf *. (nf -. 1.0)) /. (nf -. 2.0)

let quantile xs p =
  if Array.length xs = 0 then Slc_obs.Slc_error.invalid_input ~site:"Describe.quantile" "empty sample";
  if p < 0.0 || p > 1.0 then Slc_obs.Slc_error.invalid_input ~site:"Describe.quantile" "p outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let h = p *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor h) in
  if i >= n - 1 then sorted.(n - 1)
  else begin
    let frac = h -. float_of_int i in
    ((1.0 -. frac) *. sorted.(i)) +. (frac *. sorted.(i + 1))
  end

let min_max xs =
  if Array.length xs = 0 then Slc_obs.Slc_error.invalid_input ~site:"Describe.min_max" "empty sample";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let mean_vector rows =
  if Array.length rows = 0 then Slc_obs.Slc_error.invalid_input ~site:"Describe.mean_vector" "empty";
  let d = Array.length rows.(0) in
  let m = Slc_num.Vec.create d in
  Array.iter
    (fun r ->
      if Array.length r <> d then
        Slc_obs.Slc_error.invalid_input ~site:"Describe.mean_vector" "ragged rows";
      Slc_num.Vec.axpy 1.0 r m)
    rows;
  Slc_num.Vec.scale (1.0 /. float_of_int (Array.length rows)) m

let covariance_matrix rows =
  let n = Array.length rows in
  if n < 2 then Slc_obs.Slc_error.invalid_input ~site:"Describe.covariance_matrix" "need >= 2 samples";
  let d = Array.length rows.(0) in
  let mu = mean_vector rows in
  let cov = Slc_num.Mat.create d d in
  Array.iter
    (fun r ->
      let c = Slc_num.Vec.sub r mu in
      for i = 0 to d - 1 do
        for j = 0 to d - 1 do
          Slc_num.Mat.set cov i j (Slc_num.Mat.get cov i j +. (c.(i) *. c.(j)))
        done
      done)
    rows;
  Slc_num.Mat.scale (1.0 /. float_of_int (n - 1)) cov
