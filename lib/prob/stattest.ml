let ks_two_sample xs ys =
  let nx = Array.length xs and ny = Array.length ys in
  if nx = 0 || ny = 0 then Slc_obs.Slc_error.invalid_input ~site:"Stattest.ks_two_sample" "empty sample";
  let sx = Array.copy xs and sy = Array.copy ys in
  Array.sort compare sx;
  Array.sort compare sy;
  let rec go i j best =
    if i >= nx || j >= ny then best
    else begin
      let xi = sx.(i) and yj = sy.(j) in
      let i', j' =
        if xi < yj then (i + 1, j)
        else if yj < xi then (i, j + 1)
        else (i + 1, j + 1)
      in
      let d =
        Float.abs
          ((float_of_int i' /. float_of_int nx)
          -. (float_of_int j' /. float_of_int ny))
      in
      go i' j' (Float.max best d)
    end
  in
  go 0 0 0.0
