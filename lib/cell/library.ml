type entry = { arc : Arc.t; table : Nldm.t }

type t = { tech : Slc_device.Tech.t; entries : entry list; sim_runs : int }

let characterize ?seed ?(cells = Cells.all) tech ~levels =
  let before = Harness.sim_count () in
  let entries =
    List.concat_map
      (fun cell ->
        List.map
          (fun arc -> { arc; table = Nldm.build ?seed tech arc ~levels })
          (Arc.all_of_cell cell))
      cells
  in
  { tech; entries; sim_runs = Harness.sim_count () - before }

let find t ~cell ~pin ~out_dir =
  List.find_opt
    (fun e ->
      String.equal e.arc.Arc.cell.Cells.name cell
      && String.equal e.arc.Arc.pin pin
      && e.arc.Arc.out_dir = out_dir)
    t.entries

(* ------------------------------------------------------------------ *)
(* Serialization: the library header plus one embedded NLDM block per
   entry.  Arcs are stored as (cell, pin, direction) and rebuilt
   through [Arc.find], which is exactly how [characterize] derived
   them — the round trip reproduces the same side-input assignment. *)

module R = Slc_num.Line_reader

let fail = R.fail

let direction_of_string = function
  | "rise" -> Arc.Rise
  | "fall" -> Arc.Fall
  | s -> fail ("bad direction " ^ s)

let to_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "slc-library 1\n";
  Buffer.add_string b (Printf.sprintf "tech %s\n" t.tech.Slc_device.Tech.name);
  Buffer.add_string b (Printf.sprintf "sim_runs %d\n" t.sim_runs);
  Buffer.add_string b (Printf.sprintf "entries %d\n" (List.length t.entries));
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "entry %s %s %s\n" e.arc.Arc.cell.Cells.name
           e.arc.Arc.pin
           (Arc.direction_to_string e.arc.Arc.out_dir));
      Nldm.to_buffer b e.table)
    t.entries;
  Buffer.add_string b "end\n";
  Buffer.contents b

let of_string ?tech src =
  R.scope "Library" @@ fun () ->
  let c = R.of_string src in
  (match R.expect c "slc-library" with
  | [ "1" ] -> ()
  | _ -> fail "unsupported format version (want 1)");
  let tech_name =
    match R.expect c "tech" with [ n ] -> n | _ -> fail "bad tech line"
  in
  let tech =
    match tech with
    | Some t ->
      if t.Slc_device.Tech.name <> tech_name then
        fail
          (Printf.sprintf "stored for tech %s, caller supplied %s" tech_name
             t.Slc_device.Tech.name);
      t
    | None -> (
      match Slc_device.Tech.by_name tech_name with
      | t -> t
      | exception Not_found -> fail ("unknown tech " ^ tech_name))
  in
  let sim_runs =
    match R.expect c "sim_runs" with
    | [ n ] -> R.int n
    | _ -> fail "bad sim_runs line"
  in
  let n_entries =
    match R.expect c "entries" with
    | [ n ] -> R.int n
    | _ -> fail "bad entries line"
  in
  let entries =
    List.init n_entries (fun _ ->
        match R.expect c "entry" with
        | [ cell_name; pin; dir ] ->
          let cell =
            match Cells.by_name cell_name with
            | c -> c
            | exception Not_found -> fail ("unknown cell " ^ cell_name)
          in
          let out_dir = direction_of_string dir in
          let arc =
            match Arc.find cell ~pin ~out_dir with
            | a -> a
            | exception Not_found ->
              fail
                (Printf.sprintf "no %s arc on %s/%s" dir cell_name pin)
          in
          { arc; table = Nldm.parse_lines c }
        | _ -> fail "bad entry line")
  in
  (match R.fields (R.next c) with
  | [ "end" ] -> ()
  | _ -> fail "missing end marker");
  R.finish c;
  { tech; entries; sim_runs }

let summary ppf t =
  Format.fprintf ppf "library(%s) { /* %d arcs, %d simulator runs */@."
    t.tech.Slc_device.Tech.name (List.length t.entries) t.sim_runs;
  List.iter
    (fun e ->
      let tb = e.table in
      let n_s = Array.length (tb.Nldm.sin_axis :> float array)
      and n_c = Array.length (tb.Nldm.cload_axis :> float array)
      and n_v = Array.length (tb.Nldm.vdd_axis :> float array) in
      let td_min = tb.Nldm.td.(0).(0).(n_v - 1) in
      let td_max = tb.Nldm.td.(n_s - 1).(n_c - 1).(0) in
      Format.fprintf ppf "  arc %-16s table %dx%dx%d  td [%6.2f .. %6.2f] ps@."
        (Arc.name e.arc) n_s n_c n_v (td_min *. 1e12) (td_max *. 1e12))
    t.entries;
  Format.fprintf ppf "}@."
