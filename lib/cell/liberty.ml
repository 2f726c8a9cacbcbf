module Tech = Slc_device.Tech

let ps = 1e-12

let fF = 1e-15

(* ------------------------------------------------------------------ *)
(* Writer *)

let nearest_index (axis : Slc_num.Interp.axis) x =
  let axis = (axis :> float array) in
  let best = ref 0 in
  Array.iteri
    (fun i v -> if Float.abs (v -. x) < Float.abs (axis.(!best) -. x) then best := i)
    axis;
  !best

let write_axis ppf name values scale =
  Format.fprintf ppf "@[<h>%s (\"%s\");@]@," name
    (String.concat ", "
       (Array.to_list (Array.map (fun v -> Printf.sprintf "%.4f" (v /. scale)) values)))

let fJ = 1e-15

let write_table ?(scale = ps) ppf kind (t : Nldm.t) values vdd_idx =
  let sin_axis = (t.Nldm.sin_axis :> float array)
  and cload_axis = (t.Nldm.cload_axis :> float array) in
  Format.fprintf ppf "@[<v 2>%s (tmpl_%dx%d) {@," kind
    (Array.length sin_axis) (Array.length cload_axis);
  write_axis ppf "index_1" sin_axis ps;
  write_axis ppf "index_2" cload_axis fF;
  Format.fprintf ppf "@[<v 2>values (@,";
  Array.iteri
    (fun i _ ->
      let row =
        String.concat ", "
          (Array.to_list
             (Array.mapi
                (fun j _ ->
                  Printf.sprintf "%.4f" (values.(i).(j).(vdd_idx) /. scale))
                cload_axis))
      in
      Format.fprintf ppf "\"%s\"%s@," row
        (if i < Array.length sin_axis - 1 then "," else ""))
    sin_axis;
  Format.fprintf ppf "@]);@]@,}@,"

let write ppf ~vdd (lib : Library.t) =
  let tech = lib.Library.tech in
  Format.fprintf ppf "@[<v 2>library (%s) {@," tech.Tech.name;
  Format.fprintf ppf "time_unit : \"1ps\";@,";
  Format.fprintf ppf "capacitive_load_unit (1, ff);@,";
  Format.fprintf ppf "nom_voltage : %.3f;@," vdd;
  (* Group entries by cell, keeping the cell record from the entries
     themselves so non-built-in cells export correctly. *)
  let cells =
    List.sort_uniq
      (fun (a : Cells.t) b -> compare a.Cells.name b.Cells.name)
      (List.map (fun e -> e.Library.arc.Arc.cell) lib.Library.entries)
  in
  List.iter
    (fun (cell : Cells.t) ->
      let cell_name = cell.Cells.name in
      Format.fprintf ppf "@[<v 2>cell (%s) {@," cell_name;
      List.iter
        (fun pin ->
          Format.fprintf ppf
            "@[<v 2>pin (%s) {@,direction : input;@,capacitance : %.4f;@]@,}@,"
            pin
            (Equivalent.input_cap tech cell ~pin /. fF))
        cell.Cells.inputs;
      Format.fprintf ppf "@[<v 2>pin (Y) {@,direction : output;@,";
      List.iter
        (fun pin ->
          let entry dir =
            Library.find lib ~cell:cell_name ~pin ~out_dir:dir
          in
          match (entry Arc.Rise, entry Arc.Fall) with
          | None, None -> ()
          | rise, fall ->
            Format.fprintf ppf "@[<v 2>timing () {@,";
            Format.fprintf ppf "related_pin : \"%s\";@," pin;
            Format.fprintf ppf "timing_sense : negative_unate;@,";
            Option.iter
              (fun (e : Library.entry) ->
                let vi = nearest_index e.Library.table.Nldm.vdd_axis vdd in
                write_table ppf "cell_rise" e.Library.table
                  e.Library.table.Nldm.td vi;
                write_table ppf "rise_transition" e.Library.table
                  e.Library.table.Nldm.sout vi)
              rise;
            Option.iter
              (fun (e : Library.entry) ->
                let vi = nearest_index e.Library.table.Nldm.vdd_axis vdd in
                write_table ppf "cell_fall" e.Library.table
                  e.Library.table.Nldm.td vi;
                write_table ppf "fall_transition" e.Library.table
                  e.Library.table.Nldm.sout vi)
              fall;
            Format.fprintf ppf "@]}@,";
            (* Switching energy in fJ (internal_power group). *)
            Format.fprintf ppf "@[<v 2>internal_power () {@,";
            Format.fprintf ppf "related_pin : \"%s\";@," pin;
            Option.iter
              (fun (e : Library.entry) ->
                let vi = nearest_index e.Library.table.Nldm.vdd_axis vdd in
                write_table ~scale:fJ ppf "rise_power" e.Library.table
                  e.Library.table.Nldm.energy vi)
              rise;
            Option.iter
              (fun (e : Library.entry) ->
                let vi = nearest_index e.Library.table.Nldm.vdd_axis vdd in
                write_table ~scale:fJ ppf "fall_power" e.Library.table
                  e.Library.table.Nldm.energy vi)
              fall;
            Format.fprintf ppf "@]}@,")
        cell.Cells.inputs;
      Format.fprintf ppf "@]}@,";
      Format.fprintf ppf "@]}@,")
    cells;
  Format.fprintf ppf "@]}@."

let to_string ~vdd lib = Format.asprintf "%a" (fun ppf () -> write ppf ~vdd lib) ()

(* ------------------------------------------------------------------ *)
(* Reader: tokenizer + recursive-descent over the generic Liberty
   group/attribute grammar, then extraction of the subset we emit. *)

exception Parse_error of string

type token =
  | Ident of string
  | Str of string
  | Num of float
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Colon
  | Semi
  | Comma

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let i = ref 0 in
  let push t = tokens := t :: !tokens in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      (* comment *)
      let j = ref (!i + 2) in
      while !j + 1 < n && not (src.[!j] = '*' && src.[!j + 1] = '/') do
        incr j
      done;
      i := !j + 2
    end
    else if c = '(' then (push Lparen; incr i)
    else if c = ')' then (push Rparen; incr i)
    else if c = '{' then (push Lbrace; incr i)
    else if c = '}' then (push Rbrace; incr i)
    else if c = ':' then (push Colon; incr i)
    else if c = ';' then (push Semi; incr i)
    else if c = ',' then (push Comma; incr i)
    else if c = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && src.[!j] <> '"' do
        incr j
      done;
      if !j >= n then raise (Parse_error "unterminated string");
      push (Str (String.sub src (!i + 1) (!j - !i - 1)));
      i := !j + 1
    end
    else if
      (c >= '0' && c <= '9') || c = '-' || c = '.' || c = '+'
    then begin
      let j = ref !i in
      while
        !j < n
        &&
        let d = src.[!j] in
        (d >= '0' && d <= '9')
        || d = '-' || d = '+' || d = '.' || d = 'e' || d = 'E'
      do
        incr j
      done;
      let text = String.sub src !i (!j - !i) in
      (match float_of_string_opt text with
      | Some f -> push (Num f)
      | None -> raise (Parse_error ("bad number: " ^ text)));
      i := !j
    end
    else if
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
    then begin
      let j = ref !i in
      while
        !j < n
        &&
        let d = src.[!j] in
        (d >= 'a' && d <= 'z')
        || (d >= 'A' && d <= 'Z')
        || (d >= '0' && d <= '9')
        || d = '_'
      do
        incr j
      done;
      push (Ident (String.sub src !i (!j - !i)));
      i := !j
    end
    else raise (Parse_error (Printf.sprintf "unexpected character %C" c))
  done;
  List.rev !tokens

(* Generic Liberty AST. *)
type value = Vstr of string | Vnum of float | Vident of string

type item =
  | Attribute of string * value
  | Complex of string * value list  (* name (v, v, ...); *)
  | Group of group

and group = { g_name : string; g_args : value list; items : item list }

let parse_value = function
  | Str s -> Vstr s
  | Num f -> Vnum f
  | Ident s -> Vident s
  | _ -> raise (Parse_error "expected a value")

let rec parse_items tokens acc =
  match tokens with
  | Rbrace :: rest -> (List.rev acc, rest)
  | Ident name :: Colon :: v :: Semi :: rest ->
    parse_items rest (Attribute (name, parse_value v) :: acc)
  | Ident name :: Lparen :: rest -> begin
    (* complex attribute or group *)
    let rec collect args = function
      | Rparen :: tl -> (List.rev args, tl)
      | Comma :: tl -> collect args tl
      | v :: tl -> collect (parse_value v :: args) tl
      | [] -> raise (Parse_error "unterminated argument list")
    in
    let args, rest = collect [] rest in
    match rest with
    | Lbrace :: rest ->
      let items, rest = parse_items rest [] in
      parse_items rest (Group { g_name = name; g_args = args; items } :: acc)
    | Semi :: rest -> parse_items rest (Complex (name, args) :: acc)
    | _ -> raise (Parse_error ("expected { or ; after " ^ name))
  end
  | [] -> raise (Parse_error "unexpected end of input")
  | _ -> raise (Parse_error "unexpected token")

let parse_top src =
  match tokenize src with
  | Ident "library" :: Lparen :: name :: Rparen :: Lbrace :: rest ->
    let items, rest = parse_items rest [] in
    if rest <> [] then raise (Parse_error "trailing tokens after library");
    { g_name = "library"; g_args = [ parse_value name ]; items }
  | _ -> raise (Parse_error "expected library ( name ) {")

(* Extraction of the emitted subset. *)

type table = {
  index_1 : Slc_num.Interp.axis;
  index_2 : Slc_num.Interp.axis;
  values : float array array;
}

type timing_group = {
  related_pin : string;
  cell_rise : table option;
  cell_fall : table option;
  rise_transition : table option;
  fall_transition : table option;
}

type power_group = {
  power_related_pin : string;
  rise_power : table option;
  fall_power : table option;
}

type cell = {
  cell_name : string;
  pin_caps : (string * float) list;
  timings : timing_group list;
  powers : power_group list;
}

type t = { library_name : string; nom_voltage : float; cells : cell list }

let value_name = function
  | Vident s | Vstr s -> s
  | Vnum f -> string_of_float f

let floats_of_string s =
  Array.of_list
    (List.filter_map
       (fun part ->
         let part = String.trim part in
         if part = "" then None
         else
           match float_of_string_opt part with
           | Some f -> Some f
           | None -> raise (Parse_error ("bad float list: " ^ s)))
       (String.split_on_char ',' s))

let extract_table g =
  let idx name =
    List.find_map
      (function
        | Complex (n, [ Vstr s ]) when n = name -> (
          match Slc_num.Interp.axis (floats_of_string s) with
          | Some _ as axis -> axis
          | None ->
            raise
              (Parse_error (name ^ " is empty or not strictly increasing")))
        | _ -> None)
      g.items
  in
  let values =
    List.find_map
      (function
        | Complex ("values", rows) ->
          Some
            (Array.of_list
               (List.map
                  (function
                    | Vstr s -> floats_of_string s
                    | _ -> raise (Parse_error "values rows must be strings"))
                  rows))
        | _ -> None)
      g.items
  in
  match (idx "index_1", idx "index_2", values) with
  | Some index_1, Some index_2, Some values -> { index_1; index_2; values }
  | _ -> raise (Parse_error ("incomplete table group " ^ g.g_name))

let extract_timing g =
  let related_pin =
    match
      List.find_map
        (function
          | Attribute ("related_pin", v) -> Some (value_name v)
          | _ -> None)
        g.items
    with
    | Some p -> p
    | None -> raise (Parse_error "timing() without related_pin")
  in
  let table name =
    List.find_map
      (function
        | Group tg when tg.g_name = name -> Some (extract_table tg)
        | _ -> None)
      g.items
  in
  {
    related_pin;
    cell_rise = table "cell_rise";
    cell_fall = table "cell_fall";
    rise_transition = table "rise_transition";
    fall_transition = table "fall_transition";
  }

let extract_power g =
  let power_related_pin =
    match
      List.find_map
        (function
          | Attribute ("related_pin", v) -> Some (value_name v)
          | _ -> None)
        g.items
    with
    | Some p -> p
    | None -> raise (Parse_error "internal_power() without related_pin")
  in
  let table name =
    List.find_map
      (function
        | Group tg when tg.g_name = name -> Some (extract_table tg)
        | _ -> None)
      g.items
  in
  {
    power_related_pin;
    rise_power = table "rise_power";
    fall_power = table "fall_power";
  }

let extract_cell g =
  let cell_name =
    match g.g_args with
    | [ v ] -> value_name v
    | _ -> raise (Parse_error "cell() needs one name")
  in
  let pin_caps = ref [] in
  let timings = ref [] in
  let powers = ref [] in
  List.iter
    (function
      | Group pg when pg.g_name = "pin" -> begin
        let pin_name =
          match pg.g_args with
          | [ v ] -> value_name v
          | _ -> raise (Parse_error "pin() needs one name")
        in
        let cap =
          List.find_map
            (function
              | Attribute ("capacitance", Vnum f) -> Some f
              | _ -> None)
            pg.items
        in
        (match cap with
        | Some c -> pin_caps := (pin_name, c) :: !pin_caps
        | None -> ());
        List.iter
          (function
            | Group tg when tg.g_name = "timing" ->
              timings := extract_timing tg :: !timings
            | Group tg when tg.g_name = "internal_power" ->
              powers := extract_power tg :: !powers
            | _ -> ())
          pg.items
      end
      | _ -> ())
    g.items;
  {
    cell_name;
    pin_caps = List.rev !pin_caps;
    timings = List.rev !timings;
    powers = List.rev !powers;
  }

let parse src =
  let top = parse_top src in
  let library_name =
    match top.g_args with [ v ] -> value_name v | _ -> "unknown"
  in
  let nom_voltage =
    Option.value ~default:0.0
      (List.find_map
         (function
           | Attribute ("nom_voltage", Vnum f) -> Some f
           | _ -> None)
         top.items)
  in
  let cells =
    List.filter_map
      (function
        | Group g when g.g_name = "cell" -> Some (extract_cell g)
        | _ -> None)
      top.items
  in
  { library_name; nom_voltage; cells }

let bilinear (tbl : table) x1 x2 =
  (* x1 on index_1 (slew, ps), x2 on index_2 (load, fF). *)
  let cell axis x =
    let i = Slc_num.Interp.locate axis x in
    let axis = (axis :> float array) in
    if Array.length axis = 1 then (0, 0.0)
    else (i, (x -. axis.(i)) /. (axis.(i + 1) -. axis.(i)))
  in
  let i, tx = cell tbl.index_1 x1 in
  let j, ty = cell tbl.index_2 x2 in
  let n1 = Array.length (tbl.index_1 :> float array)
  and n2 = Array.length (tbl.index_2 :> float array) in
  let at a b = tbl.values.(min a (n1 - 1)).(min b (n2 - 1)) in
  let lerp t a b = ((1.0 -. t) *. a) +. (t *. b) in
  lerp ty
    (lerp tx (at i j) (at (i + 1) j))
    (lerp tx (at i (j + 1)) (at (i + 1) (j + 1)))

let lookup_energy t ~cell ~related_pin ~rising ~sin ~cload =
  match List.find_opt (fun c -> String.equal c.cell_name cell) t.cells with
  | None -> None
  | Some c -> (
    match
      List.find_opt
        (fun pg -> String.equal pg.power_related_pin related_pin)
        c.powers
    with
    | None -> None
    | Some pg -> (
      match (if rising then pg.rise_power else pg.fall_power) with
      | Some tbl ->
        Some (bilinear tbl (sin /. ps) (cload /. fF) *. fJ)
      | None -> None))

let lookup t ~cell ~related_pin ~rising ~sin ~cload =
  match List.find_opt (fun c -> String.equal c.cell_name cell) t.cells with
  | None -> None
  | Some c -> (
    match
      List.find_opt
        (fun tg -> String.equal tg.related_pin related_pin)
        c.timings
    with
    | None -> None
    | Some tg -> (
      let delay_tbl = if rising then tg.cell_rise else tg.cell_fall in
      let trans_tbl =
        if rising then tg.rise_transition else tg.fall_transition
      in
      match (delay_tbl, trans_tbl) with
      | Some d, Some tr ->
        let sin_ps = sin /. ps and cl_ff = cload /. fF in
        Some
          ( bilinear d sin_ps cl_ff *. ps,
            bilinear tr sin_ps cl_ff *. ps )
      | _ -> None))
