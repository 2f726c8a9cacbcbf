type t =
  | Dev of { pin : string; width_mult : float }
  | Series of t list
  | Parallel of t list

let rec conducts net ~on =
  match net with
  | Dev { pin; _ } -> on pin
  | Series l -> List.for_all (fun sub -> conducts sub ~on) l
  | Parallel l -> List.exists (fun sub -> conducts sub ~on) l

let rec equivalent_width_mult net ~on =
  match net with
  | Dev { pin; width_mult } -> if on pin then width_mult else 0.0
  | Series l ->
    let ws = List.map (fun sub -> equivalent_width_mult sub ~on) l in
    if List.exists (fun w -> w = 0.0) ws then 0.0
    else 1.0 /. List.fold_left (fun acc w -> acc +. (1.0 /. w)) 0.0 ws
  | Parallel l ->
    List.fold_left (fun acc sub -> acc +. equivalent_width_mult sub ~on) 0.0 l

let rec validate = function
  | Dev { width_mult; _ } ->
    if width_mult <= 0.0 then
      Slc_obs.Slc_error.invalid_input ~site:"Topology.validate" "width multiplier must be > 0"
  | Series [] | Parallel [] ->
    Slc_obs.Slc_error.invalid_input ~site:"Topology.validate" "empty series/parallel group"
  | Series l | Parallel l -> List.iter validate l
