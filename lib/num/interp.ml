let is_strictly_increasing (axis : float array) =
  let n = Array.length axis in
  let ok = ref (n >= 1) in
  for i = 0 to n - 2 do
    if axis.(i) >= axis.(i + 1) then ok := false
  done;
  !ok

let check_axis name axis =
  if Array.length axis < 2 then
    invalid_arg (Printf.sprintf "Interp.%s: axis needs >= 2 points" name);
  if not (is_strictly_increasing axis) then
    invalid_arg (Printf.sprintf "Interp.%s: axis not strictly increasing" name)

let locate (axis : float array) (x : float) =
  check_axis "locate" axis;
  let n = Array.length axis in
  if x <= axis.(0) then 0
  else if x >= axis.(n - 1) then n - 2
  else begin
    (* Binary search for the cell containing x. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if axis.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let weight axis i x =
  (* Barycentric coordinate of x in cell i; unclamped so that values
     outside the grid extrapolate linearly. *)
  (x -. axis.(i)) /. (axis.(i + 1) -. axis.(i))

let linear1d xs ys x =
  if Array.length xs <> Array.length ys then
    invalid_arg "Interp.linear1d: xs/ys length mismatch";
  let i = locate xs x in
  let t = weight xs i x in
  ((1.0 -. t) *. ys.(i)) +. (t *. ys.(i + 1))

type grid2 = { xs : Vec.t; ys : Vec.t; values : Mat.t }

let make_grid2 ~xs ~ys ~f =
  check_axis "make_grid2" xs;
  check_axis "make_grid2" ys;
  { xs; ys; values = Mat.init (Array.length xs) (Array.length ys) (fun i j -> f xs.(i) ys.(j)) }

let bilinear g x y =
  if
    Mat.rows g.values <> Array.length g.xs
    || Mat.cols g.values <> Array.length g.ys
  then invalid_arg "Interp.bilinear: values shape mismatch";
  let i = locate g.xs x and j = locate g.ys y in
  let tx = weight g.xs i x and ty = weight g.ys j y in
  let v00 = Mat.get g.values i j
  and v10 = Mat.get g.values (i + 1) j
  and v01 = Mat.get g.values i (j + 1)
  and v11 = Mat.get g.values (i + 1) (j + 1) in
  ((1.0 -. tx) *. (1.0 -. ty) *. v00)
  +. (tx *. (1.0 -. ty) *. v10)
  +. ((1.0 -. tx) *. ty *. v01)
  +. (tx *. ty *. v11)

type grid3 = { axes : Vec.t * Vec.t * Vec.t; values3 : float array array array }

let make_grid3 ~xs ~ys ~zs ~f =
  check_axis "make_grid3" xs;
  check_axis "make_grid3" ys;
  check_axis "make_grid3" zs;
  let values3 =
    Array.init (Array.length xs) (fun i ->
        Array.init (Array.length ys) (fun j ->
            Array.init (Array.length zs) (fun k -> f xs.(i) ys.(j) zs.(k))))
  in
  { axes = (xs, ys, zs); values3 }

let trilinear g x y z =
  let xs, ys, zs = g.axes in
  let i = locate xs x and j = locate ys y and k = locate zs z in
  let tx = weight xs i x and ty = weight ys j y and tz = weight zs k z in
  let v = g.values3 in
  let lerp t a b = ((1.0 -. t) *. a) +. (t *. b) in
  let c00 = lerp tx v.(i).(j).(k) v.(i + 1).(j).(k)
  and c10 = lerp tx v.(i).(j + 1).(k) v.(i + 1).(j + 1).(k)
  and c01 = lerp tx v.(i).(j).(k + 1) v.(i + 1).(j).(k + 1)
  and c11 = lerp tx v.(i).(j + 1).(k + 1) v.(i + 1).(j + 1).(k + 1) in
  let c0 = lerp ty c00 c10 and c1 = lerp ty c01 c11 in
  lerp tz c0 c1
