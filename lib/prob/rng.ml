(* The four xoshiro256++ limbs s0..s3, little-endian at byte offsets 0,
   8, 16 and 24.  In [Bytes] they are read and written as unboxed
   [int64]s: a record of [int64] fields would box every limb it
   stores, four allocations per draw. *)
type t = Bytes.t

let[@inline] limb r i = Bytes.get_int64_le r (8 * i)

let[@inline] set_limb r i x = Bytes.set_int64_le r (8 * i) x

(* splitmix64, used only to expand a 64-bit value into the xoshiro
   state: its k-th output is [mix (state + k * gamma)]. *)
let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A generator whose limbs are the first four splitmix64 outputs from
   [state]. *)
let[@inline] expand state =
  let r = Bytes.create 32 in
  let s = Int64.add state gamma in
  set_limb r 0 (mix s);
  let s = Int64.add s gamma in
  set_limb r 1 (mix s);
  let s = Int64.add s gamma in
  set_limb r 2 (mix s);
  set_limb r 3 (mix (Int64.add s gamma));
  r

let create seed = expand (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step: advances [r] and returns the output. *)
let[@inline] next r =
  let s0 = limb r 0 and s1 = limb r 1 and s2 = limb r 2 and s3 = limb r 3 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set_limb r 1 (Int64.logxor s1 s2);
  set_limb r 0 (Int64.logxor s0 s3);
  set_limb r 2 (Int64.logxor s2 t);
  set_limb r 3 (rotl s3 45);
  result

let uint64 r = next r

let split_ix r ix =
  (* Pure derivation: fold the parent state and the index through
     splitmix64 without touching the parent, so the child for a given
     (parent state, ix) pair is the same no matter how many other
     children were derived or in what order — the property that makes
     per-seed sub-streams independent of work scheduling. *)
  let m = mix (Int64.add (Int64.of_int ix) gamma) in
  expand
    (Int64.logxor m
       (Int64.logxor
          (Int64.logxor (limb r 0) (rotl (limb r 1) 13))
          (Int64.logxor (rotl (limb r 2) 29) (rotl (limb r 3) 43))))

let save r =
  Printf.sprintf "%Lx %Lx %Lx %Lx" (limb r 0) (limb r 1) (limb r 2) (limb r 3)

let restore s =
  match
    String.split_on_char ' ' (String.trim s)
    |> List.filter (fun f -> f <> "")
    |> List.map (fun f -> Int64.of_string_opt ("0x" ^ f))
  with
  | [ Some s0; Some s1; Some s2; Some s3 ] ->
    let r = Bytes.create 32 in
    set_limb r 0 s0;
    set_limb r 1 s1;
    set_limb r 2 s2;
    set_limb r 3 s3;
    r
  | _ ->
    Slc_obs.Slc_error.invalid_input ~site:"Rng.restore"
      (Printf.sprintf "malformed state %S" s)

let float r =
  (* Top 53 bits scaled into [0,1). *)
  let bits = Int64.shift_right_logical (next r) 11 in
  Int64.to_float bits *. 0x1.0p-53

let uniform r ~lo ~hi = lo +. ((hi -. lo) *. float r)

let int r n =
  if n <= 0 then Slc_obs.Slc_error.invalid_input ~site:"Rng.int" "n must be > 0";
  (* Modulo of a 63-bit draw: the bias is below n/2^63, irrelevant for
     the shuffle/stratification uses in this project. *)
  let x = Int64.shift_right_logical (next r) 1 in
  Int64.to_int (Int64.rem x (Int64.of_int n))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
