(* Row-major dense matrix: data.((i * cols) + j). *)

type t = { r : int; c : int; data : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Mat.create: negative dimension";
  { r; c; data = Array.make (r * c) 0.0 }

let init r c f =
  let m = create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      m.data.((i * c) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let rows m = m.r

let cols m = m.c

let data m = m.data

let get m i j =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then
    invalid_arg "Mat.get: index out of bounds";
  m.data.((i * m.c) + j)

let set m i j x =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then
    invalid_arg "Mat.set: index out of bounds";
  m.data.((i * m.c) + j) <- x

let copy m = { m with data = Array.copy m.data }

let transpose m = init m.c m.r (fun i j -> get m j i)

let check_same name a b =
  if a.r <> b.r || a.c <> b.c then
    invalid_arg
      (Printf.sprintf "Mat.%s: dimension mismatch (%dx%d vs %dx%d)" name a.r
         a.c b.r b.c)

let add a b =
  check_same "add" a b;
  { a with data = Array.init (Array.length a.data) (fun i -> a.data.(i) +. b.data.(i)) }

let scale s a = { a with data = Array.map (fun x -> s *. x) a.data }

let mul a b =
  if a.c <> b.r then
    invalid_arg
      (Printf.sprintf "Mat.mul: inner dimension mismatch (%dx%d * %dx%d)" a.r
         a.c b.r b.c);
  let m = create a.r b.c in
  for i = 0 to a.r - 1 do
    for k = 0 to a.c - 1 do
      let aik = a.data.((i * a.c) + k) in
      if aik <> 0.0 then
        for j = 0 to b.c - 1 do
          m.data.((i * b.c) + j) <-
            m.data.((i * b.c) + j) +. (aik *. b.data.((k * b.c) + j))
        done
    done
  done;
  m

let mul_vec m v =
  if m.c <> Array.length v then
    invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.r (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.c - 1 do
        acc := !acc +. (m.data.((i * m.c) + j) *. v.(j))
      done;
      !acc)

(* [gram_into j out] computes out <- JᵀJ with floating-point operations
   in the exact order of [mul (transpose j) j] (ikj loops, zero-skip),
   so workspace-reusing callers get bitwise-identical results. *)
let[@slc.hot] gram_into j out =
  if out.r <> j.c || out.c <> j.c then
    invalid_arg "Mat.gram_into: output must be cols x cols";
  Array.fill out.data 0 (Array.length out.data) 0.0;
  let n = j.c in
  for i = 0 to n - 1 do
    for k = 0 to j.r - 1 do
      let aik = j.data.((k * n) + i) in
      if aik <> 0.0 then
        for jj = 0 to n - 1 do
          out.data.((i * n) + jj) <-
            out.data.((i * n) + jj) +. (aik *. j.data.((k * n) + jj))
        done
    done
  done

let[@slc.hot] tmul_vec_into m v out =
  if m.r <> Array.length v || m.c <> Array.length out then
    invalid_arg "Mat.tmul_vec_into: dimension mismatch";
  Array.fill out 0 m.c 0.0;
  for i = 0 to m.r - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then
      for j = 0 to m.c - 1 do
        out.(j) <- out.(j) +. (m.data.((i * m.c) + j) *. vi)
      done
  done

let diag v =
  let n = Array.length v in
  init n n (fun i j -> if i = j then v.(i) else 0.0)

let diagonal m =
  if m.r <> m.c then invalid_arg "Mat.diagonal: not square";
  Array.init m.r (fun i -> get m i i)

let trace m = Array.fold_left ( +. ) 0.0 (diagonal m)

let is_symmetric ?(tol = 1e-9) m =
  m.r = m.c
  &&
  let ok = ref true in
  for i = 0 to m.r - 1 do
    for j = i + 1 to m.c - 1 do
      if Float.abs (get m i j -. get m j i) > tol then ok := false
    done
  done;
  !ok

let sym_part m =
  if m.r <> m.c then invalid_arg "Mat.sym_part: not square";
  init m.r m.c (fun i j -> 0.5 *. (get m i j +. get m j i))

let add_ridge m lambda =
  if m.r <> m.c then invalid_arg "Mat.add_ridge: not square";
  let m' = copy m in
  for i = 0 to m.r - 1 do
    set m' i i (get m i i +. lambda)
  done;
  m'

let[@slc.hot] add_ridge_into m lambda out =
  if m.r <> m.c then invalid_arg "Mat.add_ridge_into: not square";
  if out.r <> m.r || out.c <> m.c then
    invalid_arg "Mat.add_ridge_into: dimension mismatch";
  Array.blit m.data 0 out.data 0 (Array.length m.data);
  for i = 0 to m.r - 1 do
    out.data.((i * m.c) + i) <- m.data.((i * m.c) + i) +. lambda
  done
