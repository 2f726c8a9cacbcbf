module Vec = Slc_num.Vec

type box = (float * float) array

let check_box box =
  Array.iter
    (fun (lo, hi) ->
      if lo >= hi then Slc_obs.Slc_error.invalid_input ~site:"Sampling" "degenerate box dimension")
    box

let scale_unit box u =
  if Array.length box <> Array.length u then
    Slc_obs.Slc_error.invalid_input ~site:"Sampling.scale_unit" "dimension mismatch";
  Array.mapi
    (fun d x ->
      let lo, hi = box.(d) in
      lo +. (x *. (hi -. lo)))
    u

let to_unit box p =
  if Array.length box <> Array.length p then
    Slc_obs.Slc_error.invalid_input ~site:"Sampling.to_unit" "dimension mismatch";
  Array.mapi
    (fun d x ->
      let lo, hi = box.(d) in
      (x -. lo) /. (hi -. lo))
    p

let random_box rng box n =
  check_box box;
  Array.init n (fun _ ->
      Array.map (fun (lo, hi) -> Rng.uniform rng ~lo ~hi) box)

let latin_hypercube rng box n =
  check_box box;
  if n < 1 then Slc_obs.Slc_error.invalid_input ~site:"Sampling.latin_hypercube" "n must be >= 1";
  let d = Array.length box in
  (* For each dimension, a shuffled assignment of strata to points. *)
  let strata =
    Array.init d (fun _ ->
        let idx = Array.init n (fun i -> i) in
        Rng.shuffle rng idx;
        idx)
  in
  Array.init n (fun p ->
      Vec.init d (fun dim ->
          let stratum = strata.(dim).(p) in
          let u = (float_of_int stratum +. Rng.float rng) /. float_of_int n in
          let lo, hi = box.(dim) in
          lo +. (u *. (hi -. lo))))

let primes = [| 2; 3; 5; 7; 11; 13; 17; 19 |]

let radical_inverse base i =
  let fb = 1.0 /. float_of_int base in
  let rec go i f acc =
    if i = 0 then acc
    else go (i / base) (f *. fb) (acc +. (float_of_int (i mod base) *. f))
  in
  go i fb 0.0

let halton box n =
  check_box box;
  let d = Array.length box in
  if d > Array.length primes then
    Slc_obs.Slc_error.invalid_input ~site:"Sampling.halton" "supports at most 8 dimensions";
  Array.init n (fun p ->
      let u = Vec.init d (fun dim -> radical_inverse primes.(dim) (p + 1)) in
      scale_unit box u)

let full_factorial box ~levels =
  check_box box;
  let d = Array.length box in
  if Array.length levels <> d then
    Slc_obs.Slc_error.invalid_input ~site:"Sampling.full_factorial" "levels/box mismatch";
  Array.iter
    (fun l -> if l < 1 then Slc_obs.Slc_error.invalid_input ~site:"Sampling.full_factorial" "level < 1")
    levels;
  let total = Array.fold_left ( * ) 1 levels in
  let coord dim i =
    let lo, hi = box.(dim) in
    let l = levels.(dim) in
    if l = 1 then 0.5 *. (lo +. hi)
    else lo +. (float_of_int i *. (hi -. lo) /. float_of_int (l - 1))
  in
  Array.init total (fun idx ->
      let rec digits dim idx acc =
        if dim < 0 then acc
        else digits (dim - 1) (idx / levels.(dim)) ((idx mod levels.(dim)) :: acc)
      in
      let ds = Array.of_list (digits (d - 1) idx []) in
      Vec.init d (fun dim -> coord dim ds.(dim)))
