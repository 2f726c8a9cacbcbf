(* Tests for Liberty (.lib) export and import. *)

module Tech = Slc_device.Tech
open Slc_cell

let tech = Tech.n14

let small_lib =
  lazy (Library.characterize ~cells:[ Cells.inv; Cells.nand2 ] tech ~levels:[| 3; 3; 2 |])

let liberty_text = lazy (Liberty.to_string ~vdd:0.8 (Lazy.force small_lib))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let test_writer_emits_structure () =
  let s = Lazy.force liberty_text in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true
        (contains s fragment))
    [
      "library (n14)"; "cell (INV)"; "cell (NAND2)"; "pin (A)"; "pin (Y)";
      "related_pin"; "cell_rise"; "cell_fall"; "rise_transition";
      "fall_transition"; "index_1"; "index_2"; "values"; "capacitance";
    ]

let test_parse_roundtrip_structure () =
  let parsed = Liberty.parse (Lazy.force liberty_text) in
  Alcotest.(check string) "library name" "n14" parsed.Liberty.library_name;
  Alcotest.(check (float 1e-6)) "nom voltage" 0.8 parsed.Liberty.nom_voltage;
  Alcotest.(check int) "two cells" 2 (List.length parsed.Liberty.cells);
  let nand2 =
    List.find (fun c -> c.Liberty.cell_name = "NAND2") parsed.Liberty.cells
  in
  Alcotest.(check int) "two input pins with caps" 2
    (List.length nand2.Liberty.pin_caps);
  Alcotest.(check int) "two timing groups" 2
    (List.length nand2.Liberty.timings)

let test_roundtrip_values_exact () =
  let lib = Lazy.force small_lib in
  let parsed = Liberty.parse (Lazy.force liberty_text) in
  let e =
    Option.get (Library.find lib ~cell:"NAND2" ~pin:"A" ~out_dir:Arc.Fall)
  in
  (* Query at a grid node so both sides are interpolation-free; the
     nearest-vdd slice for vdd=0.8 is whatever index the writer chose,
     so compare on the sliced data by querying the Liberty side and the
     table side at the same slice. *)
  let vdd_axis = (e.Library.table.Nldm.vdd_axis :> float array) in
  let vi = if Array.length vdd_axis = 1 then 0 else if Float.abs (vdd_axis.(0) -. 0.8) <= Float.abs (vdd_axis.(1) -. 0.8) then 0 else 1 in
  let sin = (e.Library.table.Nldm.sin_axis :> float array).(1) in
  let cload = (e.Library.table.Nldm.cload_axis :> float array).(2) in
  let expected = e.Library.table.Nldm.td.(1).(2).(vi) in
  match
    Liberty.lookup parsed ~cell:"NAND2" ~related_pin:"A" ~rising:false ~sin
      ~cload
  with
  | Some (d, _) ->
    (* 4 decimal digits of ps in the text format. *)
    Alcotest.(check (float 1e-15)) "value roundtrip" expected d
  | None -> Alcotest.fail "arc missing after roundtrip"

let test_lookup_interpolates () =
  let parsed = Liberty.parse (Lazy.force liberty_text) in
  match
    Liberty.lookup parsed ~cell:"INV" ~related_pin:"A" ~rising:true
      ~sin:4.2e-12 ~cload:2.3e-15
  with
  | Some (d, tr) ->
    Alcotest.(check bool) "positive" true (d > 0.0 && tr > 0.0);
    Alcotest.(check bool) "plausible range" true (d > 1e-13 && d < 1e-9)
  | None -> Alcotest.fail "lookup failed"

let test_energy_roundtrip () =
  let lib = Lazy.force small_lib in
  let parsed = Liberty.parse (Lazy.force liberty_text) in
  let e =
    Option.get (Library.find lib ~cell:"INV" ~pin:"A" ~out_dir:Arc.Rise)
  in
  let vdd_axis = (e.Library.table.Nldm.vdd_axis :> float array) in
  let vi =
    if Array.length vdd_axis = 1 then 0
    else if Float.abs (vdd_axis.(0) -. 0.8) <= Float.abs (vdd_axis.(1) -. 0.8)
    then 0
    else 1
  in
  let sin = (e.Library.table.Nldm.sin_axis :> float array).(0) in
  let cload = (e.Library.table.Nldm.cload_axis :> float array).(1) in
  let expected = e.Library.table.Nldm.energy.(0).(1).(vi) in
  match
    Liberty.lookup_energy parsed ~cell:"INV" ~related_pin:"A" ~rising:true
      ~sin ~cload
  with
  | Some en ->
    Alcotest.(check bool)
      (Printf.sprintf "energy roundtrip (%.4g vs %.4g)" expected en)
      true
      (Float.abs (en -. expected) < 1e-19 +. (1e-4 *. Float.abs expected))
  | None -> Alcotest.fail "energy table missing"

let test_lookup_missing () =
  let parsed = Liberty.parse (Lazy.force liberty_text) in
  Alcotest.(check bool) "unknown cell" true
    (Liberty.lookup parsed ~cell:"NOR9" ~related_pin:"A" ~rising:true
       ~sin:5e-12 ~cload:2e-15
    = None);
  Alcotest.(check bool) "unknown pin" true
    (Liberty.lookup parsed ~cell:"INV" ~related_pin:"Q" ~rising:true
       ~sin:5e-12 ~cload:2e-15
    = None)

let test_parser_errors () =
  let bad s =
    match Liberty.parse s with
    | exception Liberty.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "garbage" true (bad "not a library");
  Alcotest.(check bool) "unterminated" true (bad "library (x) { cell (A) {");
  Alcotest.(check bool) "bad string" true (bad "library (x) { a : \"unterminated; }");
  (* A table axis is validated when the library is parsed: the first
     slew index of a written library, reversed, is refused there. *)
  let text = Lazy.force liberty_text in
  let key = "index_1 (\"" in
  let rec find i =
    if String.sub text i (String.length key) = key then i else find (i + 1)
  in
  let start = find 0 + String.length key in
  let stop = String.index_from text start '"' in
  let axis = String.split_on_char ',' (String.sub text start (stop - start)) in
  let reversed = String.concat "," (List.rev axis) in
  Alcotest.(check bool) "descending index" true
    (bad
       (String.sub text 0 start ^ reversed
       ^ String.sub text stop (String.length text - stop)))

let test_parser_accepts_comments_and_whitespace () =
  let src =
    "library (demo) {\n/* a comment */  nom_voltage : 1.0;\n\n  cell (INV) \
     {\n    pin (A) { direction : input; capacitance : 0.5; }\n  }\n}"
  in
  let parsed = Liberty.parse src in
  Alcotest.(check string) "name" "demo" parsed.Liberty.library_name;
  Alcotest.(check int) "one cell" 1 (List.length parsed.Liberty.cells)

let () =
  Alcotest.run "liberty"
    [
      ( "writer",
        [ Alcotest.test_case "emits structure" `Slow test_writer_emits_structure ] );
      ( "roundtrip",
        [
          Alcotest.test_case "structure" `Slow test_parse_roundtrip_structure;
          Alcotest.test_case "values exact" `Slow test_roundtrip_values_exact;
          Alcotest.test_case "interpolated lookup" `Slow test_lookup_interpolates;
          Alcotest.test_case "missing arcs" `Slow test_lookup_missing;
          Alcotest.test_case "energy roundtrip" `Slow test_energy_roundtrip;
        ] );
      ( "parser",
        [
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "comments and whitespace" `Quick
            test_parser_accepts_comments_and_whitespace;
        ] );
    ]
