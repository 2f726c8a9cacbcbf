module Interp = Slc_num.Interp

type t = {
  arc_name : string;
  sin_axis : Interp.axis;
  cload_axis : Interp.axis;
  vdd_axis : Interp.axis;
  td : float array array array;
  sout : float array array array;
  energy : float array array array;
}

let dim (axis : Interp.axis) = Array.length (axis :> float array)

let design_levels ~budget ~box =
  if Array.length box <> 3 then Slc_obs.Slc_error.invalid_input ~site:"Nldm.design_levels" "need 3-D box";
  if budget < 1 then Slc_obs.Slc_error.invalid_input ~site:"Nldm.design_levels" "budget must be >= 1";
  (* Enumerate (n_sin, n_cload, n_vdd); maximize the grid size, then
     prefer sin/cload resolution and balance. *)
  let best = ref [| 1; 1; 1 |] in
  let best_key = ref (-1, 0.0) in
  for a = 1 to budget do
    for b = 1 to budget / a do
      let c = budget / (a * b) in
      if c >= 1 then begin
        let product = a * b * c in
        let fa = float_of_int a and fb = float_of_int b and fc = float_of_int c in
        (* Penalty: imbalance between sin and cload, plus vdd finer than
           the others. *)
        let penalty =
          ((fa -. fb) ** 2.0) +. (0.5 *. ((fc -. (0.5 *. (fa +. fb))) ** 2.0))
          +. if c > min a b then 10.0 else 0.0
        in
        let key = (product, -.penalty) in
        if key > !best_key then begin
          best_key := key;
          best := [| a; b; c |]
        end
      end
    done
  done;
  !best

let axis_of_level (lo, hi) n =
  if n < 1 then Slc_obs.Slc_error.invalid_input ~site:"Nldm.axes_of_levels" "level < 1";
  if n = 1 then [| 0.5 *. (lo +. hi) |]
  else Slc_num.Vec.linspace lo hi n

let axes_of_levels ~box levels =
  if Array.length box <> 3 || Array.length levels <> 3 then
    Slc_obs.Slc_error.invalid_input ~site:"Nldm.axes_of_levels" "need 3-D box and levels";
  Array.init 3 (fun d -> axis_of_level box.(d) levels.(d))

let build_on_axes ?seed tech arc ~axes =
  if Array.length axes <> 3 then Slc_obs.Slc_error.invalid_input ~site:"Nldm.build_on_axes" "need 3 axes";
  (* Per-simulation failures get their (seed, ξ-point) context from
     [Harness.simulate]; this annotates anything else escaping the grid
     build with the arc/tech being tabulated. *)
  Slc_obs.Slc_error.with_context
    {
      Slc_obs.Slc_error.arc = Some (Arc.name arc);
      tech = Some tech.Slc_device.Tech.name;
      seed =
        (match seed with
        | Some s when not (s == Slc_device.Process.nominal) ->
          Some s.Slc_device.Process.index
        | Some _ | None -> None);
      point = None;
    }
  @@ fun () ->
  let axis a =
    match Interp.axis a with
    | Some a -> a
    | None ->
      Slc_obs.Slc_error.invalid_input ~site:"Nldm.build_on_axes"
        "axis empty or not strictly increasing"
  in
  let sin_axis = axis axes.(0)
  and cload_axis = axis axes.(1)
  and vdd_axis = axis axes.(2) in
  let measure s c v =
    Harness.simulate ?seed tech arc { Harness.sin = s; cload = c; vdd = v }
  in
  let n_s = dim sin_axis and n_c = dim cload_axis and n_v = dim vdd_axis in
  let td = Array.init n_s (fun _ -> Array.init n_c (fun _ -> Array.make n_v 0.0)) in
  let sout = Array.init n_s (fun _ -> Array.init n_c (fun _ -> Array.make n_v 0.0)) in
  let energy =
    Array.init n_s (fun _ -> Array.init n_c (fun _ -> Array.make n_v 0.0))
  in
  for i = 0 to n_s - 1 do
    for j = 0 to n_c - 1 do
      for k = 0 to n_v - 1 do
        let m =
          measure
            (sin_axis :> float array).(i)
            (cload_axis :> float array).(j)
            (vdd_axis :> float array).(k)
        in
        td.(i).(j).(k) <- m.Harness.td;
        sout.(i).(j).(k) <- m.Harness.sout;
        energy.(i).(j).(k) <- m.Harness.energy
      done
    done
  done;
  { arc_name = Arc.name arc; sin_axis; cload_axis; vdd_axis; td; sout; energy }

let build ?seed tech arc ~levels =
  let box = Slc_device.Tech.input_box tech in
  build_on_axes ?seed tech arc ~axes:(axes_of_levels ~box levels)

(* Interpolation over up to three axes, constant along singletons.
   [Interp.locate]/[weight] locate a coordinate on one axis;
   [interpolate] blends the eight corners.  A point is located once and
   every value grid reuses that location, so [lookup_td_sout] is bitwise
   [(lookup_td t p, lookup_sout t p)] at half the locating work.  The
   axes were validated when the table was made, so [Interp.locate]
   (which puts a singleton axis's one cell at 0) scans nothing.
   [weight] and [interpolate] are inlined, so their float arguments and
   results stay unboxed: besides its result, a lookup allocates only the
   coordinate each [Interp.locate] call boxes. *)
let[@inline] weight (axis : Interp.axis) i x =
  let axis = (axis :> float array) in
  if Array.length axis = 1 then 0.0
  else (x -. axis.(i)) /. (axis.(i + 1) -. axis.(i))

let[@inline] interpolate (values : float array array array) t i j k tx ty tz =
  (* Clamp the upper corner onto singleton axes. *)
  let i1 = if i + 1 < dim t.sin_axis then i + 1 else i in
  let j1 = if j + 1 < dim t.cload_axis then j + 1 else j in
  let k1 = if k + 1 < dim t.vdd_axis then k + 1 else k in
  let v0 = values.(i) and v1 = values.(i1) in
  let c00 = ((1.0 -. tx) *. v0.(j).(k)) +. (tx *. v1.(j).(k)) in
  let c10 = ((1.0 -. tx) *. v0.(j1).(k)) +. (tx *. v1.(j1).(k)) in
  let c01 = ((1.0 -. tx) *. v0.(j).(k1)) +. (tx *. v1.(j).(k1)) in
  let c11 = ((1.0 -. tx) *. v0.(j1).(k1)) +. (tx *. v1.(j1).(k1)) in
  let c0 = ((1.0 -. ty) *. c00) +. (ty *. c10) in
  let c1 = ((1.0 -. ty) *. c01) +. (ty *. c11) in
  ((1.0 -. tz) *. c0) +. (tz *. c1)

let lookup values t (p : Harness.point) =
  let i = Interp.locate t.sin_axis p.Harness.sin in
  let j = Interp.locate t.cload_axis p.Harness.cload in
  let k = Interp.locate t.vdd_axis p.Harness.vdd in
  interpolate values t i j k
    (weight t.sin_axis i p.Harness.sin)
    (weight t.cload_axis j p.Harness.cload)
    (weight t.vdd_axis k p.Harness.vdd)

let lookup_td t p = lookup t.td t p

let lookup_sout t p = lookup t.sout t p

let lookup_td_sout t (p : Harness.point) =
  let i = Interp.locate t.sin_axis p.Harness.sin in
  let j = Interp.locate t.cload_axis p.Harness.cload in
  let k = Interp.locate t.vdd_axis p.Harness.vdd in
  let tx = weight t.sin_axis i p.Harness.sin in
  let ty = weight t.cload_axis j p.Harness.cload in
  let tz = weight t.vdd_axis k p.Harness.vdd in
  (interpolate t.td t i j k tx ty tz, interpolate t.sout t i j k tx ty tz)

(* ------------------------------------------------------------------ *)
(* Serialization.  Line-oriented text with hex floats (Hexfloat), so a
   stored table reloads with bitwise-identical axes and values — the
   persistent store's correctness contract. *)

module R = Slc_num.Line_reader

let hex = Slc_num.Hexfloat.to_string

let to_buffer b t =
  let axis name (a : Interp.axis) =
    let a = (a :> float array) in
    Buffer.add_string b
      (Printf.sprintf "axis %s %d %s\n" name (Array.length a)
         (String.concat " " (Array.to_list (Array.map hex a))))
  in
  let grid name (values : float array array array) =
    let flat = ref [] in
    for i = dim t.sin_axis - 1 downto 0 do
      for j = dim t.cload_axis - 1 downto 0 do
        for k = dim t.vdd_axis - 1 downto 0 do
          flat := hex values.(i).(j).(k) :: !flat
        done
      done
    done;
    Buffer.add_string b
      (Printf.sprintf "%s %s\n" name (String.concat " " !flat))
  in
  Buffer.add_string b "slc-nldm 1\n";
  Buffer.add_string b (Printf.sprintf "arc %s\n" t.arc_name);
  axis "sin" t.sin_axis;
  axis "cload" t.cload_axis;
  axis "vdd" t.vdd_axis;
  grid "td" t.td;
  grid "sout" t.sout;
  grid "energy" t.energy;
  Buffer.add_string b "end\n"

let to_string t =
  let b = Buffer.create 1024 in
  to_buffer b t;
  Buffer.contents b

(* One table from a cursor; shared with [Library.of_string] and the
   store's predictor blocks, which embed table blocks inline. *)
let parse c =
  (match R.expect c "slc-nldm" with
  | [ "1" ] -> ()
  | _ -> R.fail "unsupported format version (want 1)");
  let arc_name =
    match R.expect c "arc" with [ a ] -> a | _ -> R.fail "bad arc line"
  in
  let axis name =
    match R.expect c "axis" with
    | n :: rest when n = name -> R.axis name rest
    | _ -> R.fail ("expected axis " ^ name)
  in
  let sin_axis = axis "sin" in
  let cload_axis = axis "cload" in
  let vdd_axis = axis "vdd" in
  let n_s = dim sin_axis and n_c = dim cload_axis and n_v = dim vdd_axis in
  let grid name =
    let vals = R.floats (R.expect c name) in
    if Array.length vals <> n_s * n_c * n_v then
      R.fail (name ^ " grid size mismatch");
    Array.init n_s (fun i ->
        Array.init n_c (fun j ->
            Array.init n_v (fun k -> vals.((((i * n_c) + j) * n_v) + k))))
  in
  let td = grid "td" in
  let sout = grid "sout" in
  let energy = grid "energy" in
  (match R.fields (R.next c) with
  | [ "end" ] -> ()
  | _ -> R.fail "missing end marker");
  { arc_name; sin_axis; cload_axis; vdd_axis; td; sout; energy }

let parse_lines c = R.scope "Nldm" (fun () -> parse c)

let of_string src =
  R.scope "Nldm" (fun () ->
      let c = R.of_string src in
      let t = parse c in
      R.finish c;
      t)
