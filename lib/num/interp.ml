(* An axis is validated once, when it is made; [locate] trusts it. *)
type axis = float array

(* [<] is false against a NaN, so a NaN point fails the check. *)
let is_strictly_increasing (axis : float array) =
  let n = Array.length axis in
  let ok = ref (n >= 1 && axis.(0) = axis.(0)) in
  for i = 0 to n - 2 do
    if not (axis.(i) < axis.(i + 1)) then ok := false
  done;
  !ok

(* The copy is validated, so no later write by the caller can break
   the ordering [locate] relies on. *)
let axis a =
  let a = Array.copy a in
  if is_strictly_increasing a then Some a else None

let locate (axis : axis) (x : float) =
  let n = Array.length axis in
  if n < 2 || x <= axis.(0) then 0
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
  if Array.length xs < 2 then
    invalid_arg "Interp.linear1d: axis needs >= 2 points";
  let i = locate xs x in
  let t = weight xs i x in
  ((1.0 -. t) *. ys.(i)) +. (t *. ys.(i + 1))

type grid3 = { axes : axis * axis * axis; values3 : float array array array }

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
