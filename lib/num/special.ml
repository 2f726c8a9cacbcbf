(* erfc by the Numerical-Recipes rational Chebyshev fit (fractional
   error < 1.2e-7 everywhere): the normal CDF below is built on it. *)
let erfc x =
  let z = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.5 *. z)) in
  let poly =
    -1.26551223
    +. (t
       *. (1.00002368
          +. (t
             *. (0.37409196
                +. (t
                   *. (0.09678418
                      +. (t
                         *. (-0.18628806
                            +. (t
                               *. (0.27886807
                                  +. (t
                                     *. (-1.13520398
                                        +. (t
                                           *. (1.48851587
                                              +. (t
                                                 *. (-0.82215223
                                                    +. (t *. 0.17087277)))))))))))))))))
  in
  let ans = t *. exp ((-.z *. z) +. poly) in
  if x >= 0.0 then ans else 2.0 -. ans

let sqrt2 = sqrt 2.0

let two_pi = 8.0 *. atan 1.0

let normal_cdf ?(mu = 0.0) ?(sigma = 1.0) x =
  0.5 *. erfc (-.(x -. mu) /. (sigma *. sqrt2))

(* Acklam's inverse normal CDF approximation followed by one Halley
   refinement step against the accurate erfc-based CDF. *)
let normal_quantile ?(mu = 0.0) ?(sigma = 1.0) p =
  if p <= 0.0 || p >= 1.0 then
    invalid_arg "Special.normal_quantile: p must be in (0,1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let central q =
    let r = q *. q in
    q
    *. ((((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
          *. r
       +. a.(5))
    /. ((((((b.(0) *. r) +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
          *. r
       +. 1.0)
  in
  let tail q =
    ((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
       *. q
    +. c.(5))
    /. (((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
  in
  let x0 =
    if p < p_low then tail (sqrt (-2.0 *. log p))
    else if p <= 1.0 -. p_low then central (p -. 0.5)
    else -.tail (sqrt (-2.0 *. log (1.0 -. p)))
  in
  let e = normal_cdf x0 -. p in
  let u = e *. sqrt two_pi *. exp (x0 *. x0 /. 2.0) in
  let x1 = x0 -. (u /. (1.0 +. (x0 *. u /. 2.0))) in
  mu +. (sigma *. x1)
