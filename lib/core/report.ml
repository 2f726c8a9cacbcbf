let table ppf ~header rows =
  let all = header :: rows in
  let n_cols =
    List.fold_left (fun acc r -> max acc (List.length r)) 0 all
  in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some s -> max acc (String.length s)
        | None -> acc)
      0 all
  in
  let widths = Array.init n_cols width in
  let render row =
    let cells =
      List.mapi
        (fun c s -> Printf.sprintf "%-*s" widths.(c) s)
        row
    in
    String.concat "  " cells
  in
  Format.fprintf ppf "%s@." (render header);
  let rule =
    String.concat "--"
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  Format.fprintf ppf "%s@." rule;
  List.iter (fun row -> Format.fprintf ppf "%s@." (render row)) rows

let bar ~width value vmax =
  if width < 1 then Slc_obs.Slc_error.invalid_input ~site:"Report.bar" "width must be >= 1";
  let frac =
    if vmax <= 0.0 then 0.0 else Float.max 0.0 (Float.min 1.0 (value /. vmax))
  in
  let n = int_of_float (Float.round (frac *. float_of_int width)) in
  String.make n '#' ^ String.make (width - n) ' '

let pct x = Printf.sprintf "%.2f%%" (100.0 *. x)

let ps x = Printf.sprintf "%.2fps" (x *. 1e12)
