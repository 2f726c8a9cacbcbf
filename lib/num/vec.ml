type t = float array

let create n = Array.make n 0.0

let init = Array.init

let copy = Array.copy

let dim = Array.length

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
         (Array.length a) (Array.length b))

let add a b =
  check_dims "add" a b;
  Array.init (Array.length a) (fun i -> a.(i) +. b.(i))

let sub a b =
  check_dims "sub" a b;
  Array.init (Array.length a) (fun i -> a.(i) -. b.(i))

let scale s a = Array.map (fun x -> s *. x) a

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot a b =
  check_dims "dot" a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 a = sqrt (dot a a)

let sum = Array.fold_left ( +. ) 0.0

let mean a =
  if Array.length a = 0 then invalid_arg "Vec.mean: empty vector";
  sum a /. float_of_int (Array.length a)

let linspace a b n =
  if n < 2 then invalid_arg "Vec.linspace: need at least 2 points";
  let h = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (float_of_int i *. h))
