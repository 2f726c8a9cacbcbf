(* Tests for the structural-Verilog subset reader. *)

module Tech = Slc_device.Tech
open Slc_cell
open Slc_ssta

let tech = Tech.n14

let vdd = 0.8

let src =
  {|
// a small cone of logic
module top (a, b, out);
  input a, b;
  output out;
  wire n1, n2;
  NAND2 u1 (.A(a), .B(b), .Y(n1));
  INV   u2 (.A(a), .Y(n2));
  NOR2  u3 (.A(n1), .B(n2), .Y(out));
endmodule
|}

let test_parse_structure () =
  let v = Verilog.parse src in
  Alcotest.(check string) "module name" "top" v.Verilog.module_name;
  Alcotest.(check (list string)) "inputs" [ "a"; "b" ] v.Verilog.inputs;
  Alcotest.(check (list string)) "outputs" [ "out" ] v.Verilog.outputs;
  Alcotest.(check (list string)) "wires" [ "n1"; "n2" ] v.Verilog.wires;
  Alcotest.(check int) "instances" 3 (List.length v.Verilog.instances);
  let u3 =
    List.find (fun i -> i.Verilog.instance_name = "u3") v.Verilog.instances
  in
  Alcotest.(check string) "cell" "NOR2" u3.Verilog.cell_name;
  Alcotest.(check (option string)) "pin A" (Some "n1")
    (List.assoc_opt "A" u3.Verilog.connections)

let test_parse_errors () =
  let bad s =
    match Verilog.parse s with
    | exception Verilog.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "garbage" true (bad "hello world");
  Alcotest.(check bool) "missing endmodule" true
    (bad "module m (a); input a;");
  Alcotest.(check bool) "undeclared net" true
    (bad "module m (a); input a; INV u (.A(a), .Y(zz)); endmodule");
  Alcotest.(check bool) "double declaration" true
    (bad "module m (a); input a; wire a; endmodule");
  Alcotest.(check bool) "undeclared port" true
    (bad "module m (a, q); input a; endmodule")

let test_parse_error_messages () =
  let msg s =
    match Verilog.parse s with
    | exception Verilog.Parse_error m -> m
    | _ -> Alcotest.fail "parsed"
  in
  Alcotest.(check string) "double declaration" "net a declared twice"
    (msg "module m (a); input a; wire b, a; endmodule");
  Alcotest.(check string) "undeclared net"
    "instance u references undeclared net zz"
    (msg "module m (a); input a; INV u (.A(a), .Y(zz)); endmodule");
  Alcotest.(check string) "port declared as a wire"
    "port q lacks an input/output declaration"
    (msg "module m (a, q); input a; wire q; endmodule")

let test_out_of_order_instances () =
  (* u2 consumes u1's output but is written first. *)
  let v =
    Verilog.parse
      {|module m (a, out);
         input a; output out; wire n1;
         INV u2 (.A(n1), .Y(out));
         INV u1 (.A(a), .Y(n1));
       endmodule|}
  in
  let dag, _, outs = Verilog.to_sdag v tech ~vdd in
  let oracle = Oracle.of_simulator tech in
  let input_arrivals _ = Sdag.input_edge ~at:0.0 ~slew:5e-12 ~rises:true in
  let out = List.assoc "out" outs in
  let arr = Sdag.analyze dag oracle ~input_arrivals out in
  Alcotest.(check bool) "two inverters restore the edge" true
    (Sdag.at_edge arr ~rises:true <> None)

let test_to_sdag_matches_manual () =
  let v = Verilog.parse src in
  let dag, _, outs = Verilog.to_sdag v tech ~vdd in
  let out = List.assoc "out" outs in
  (* Hand-built equivalent. *)
  let dag2 = Sdag.create tech ~vdd in
  let a = Sdag.input dag2 "a" in
  let b = Sdag.input dag2 "b" in
  let n1 = Sdag.gate dag2 Cells.nand2 ~pins:[ ("A", a); ("B", b) ] "n1" in
  let n2 = Sdag.gate dag2 Cells.inv ~pins:[ ("A", a) ] "n2" in
  let out2 = Sdag.gate dag2 Cells.nor2 ~pins:[ ("A", n1); ("B", n2) ] "out" in
  let oracle = Oracle.of_simulator tech in
  let input_arrivals _ = Sdag.input_edge ~at:0.0 ~slew:5e-12 ~rises:true in
  let e1 = Sdag.at_edge (Sdag.analyze dag oracle ~input_arrivals out) ~rises:true in
  let e2 =
    Sdag.at_edge (Sdag.analyze dag2 oracle ~input_arrivals out2) ~rises:true
  in
  match (e1, e2) with
  | Some x, Some y ->
    Alcotest.(check (float 1e-15)) "same arrival" y.Sdag.at x.Sdag.at
  | _ -> Alcotest.fail "expected arrivals on both"

let test_semantic_errors () =
  let bad s =
    match Verilog.to_sdag (Verilog.parse s) tech ~vdd with
    | exception Verilog.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown cell" true
    (bad "module m (a, q); input a; output q; XOR7 u (.A(a), .Y(q)); endmodule");
  Alcotest.(check bool) "no Y pin" true
    (bad "module m (a, q); input a; output q; INV u (.A(a)); endmodule");
  Alcotest.(check bool) "missing pin" true
    (bad
       "module m (a, q); input a; output q; NAND2 u (.A(a), .Y(q)); endmodule");
  Alcotest.(check bool) "multiply driven" true
    (bad
       "module m (a, q); input a; output q; INV u1 (.A(a), .Y(q)); INV u2 \
        (.A(a), .Y(q)); endmodule");
  Alcotest.(check bool) "drives an input" true
    (bad "module m (a, q); input a; output q; INV u (.A(q), .Y(a)); endmodule");
  Alcotest.(check bool) "combinational loop" true
    (bad
       "module m (a, q); input a; output q; wire n1; INV u1 (.A(n1), .Y(q)); \
        INV u2 (.A(q), .Y(n1)); endmodule");
  Alcotest.(check bool) "undriven output" true
    (bad "module m (a, q); input a; output q; endmodule")

let test_slack_through_netlist () =
  let v = Verilog.parse src in
  let dag, _, outs = Verilog.to_sdag v tech ~vdd in
  let out = List.assoc "out" outs in
  let oracle = Oracle.of_simulator tech in
  let input_arrivals _ = Sdag.input_edge ~at:0.0 ~slew:5e-12 ~rises:true in
  let rows =
    Sdag.slack_report dag oracle ~input_arrivals ~outputs:[ (out, 50e-12) ]
  in
  Alcotest.(check bool) "rows exist" true (List.length rows >= 3);
  (* Sorted most-critical first. *)
  let slacks = List.map (fun r -> r.Sdag.slack) rows in
  Alcotest.(check bool) "sorted" true (List.sort compare slacks = slacks)

let test_sta_pipeline () =
  (* The [slc sta] / served [sta] pipeline: a bad netlist is one message
     naming its stage, reported before any oracle is built; a good one
     yields the constrained rows only. *)
  let no_oracle () = Alcotest.fail "oracle built for a bad netlist" in
  let sta ?(oracle = no_oracle) path =
    Verilog.sta tech ~oracle ~clock:50e-12 path
  in
  let with_file text f =
    let path = Filename.temp_file "slc_verilog" ".v" in
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  let err what want = function
    | Error m -> Alcotest.(check string) what want m
    | Ok _ -> Alcotest.fail (what ^ ": want an error")
  in
  err "missing file" "netlist: /nonexistent/x.v: No such file or directory"
    (sta "/nonexistent/x.v");
  let syntax = "module m (a, q); input a; output q" in
  let syntax_msg =
    match Verilog.parse syntax with
    | exception Verilog.Parse_error m -> m
    | _ -> Alcotest.fail "syntax error accepted"
  in
  with_file syntax (fun p ->
      err "syntax" ("netlist parse error: " ^ syntax_msg) (sta p));
  let loop =
    "module m (a, q); input a; output q; wire n1; INV u1 (.A(n1), .Y(q)); \
     INV u2 (.A(q), .Y(n1)); endmodule"
  in
  let loop_msg =
    match Verilog.to_sdag (Verilog.parse loop) tech ~vdd:tech.Tech.vdd_nom with
    | exception Verilog.Parse_error m -> m
    | _ -> Alcotest.fail "loop accepted"
  in
  with_file loop (fun p -> err "loop" ("netlist error: " ^ loop_msg) (sta p));
  with_file src (fun p ->
      match sta ~oracle:(fun () -> Oracle.of_simulator tech) p with
      | Error m -> Alcotest.fail m
      | Ok (name, rows) ->
        Alcotest.(check string) "module name" "top" name;
        Alcotest.(check bool) "rows" true (rows <> []);
        List.iter
          (fun r ->
            Alcotest.(check bool) (r.Sdag.net_label ^ " constrained") true
              (r.Sdag.required_time < Float.infinity))
          rows)

let () =
  Alcotest.run "verilog"
    [
      ( "parser",
        [
          Alcotest.test_case "structure" `Quick test_parse_structure;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error messages" `Quick test_parse_error_messages;
        ] );
      ( "sdag",
        [
          Alcotest.test_case "out-of-order instances" `Quick
            test_out_of_order_instances;
          Alcotest.test_case "matches manual DAG" `Quick
            test_to_sdag_matches_manual;
          Alcotest.test_case "semantic errors" `Quick test_semantic_errors;
          Alcotest.test_case "slack report" `Quick test_slack_through_netlist;
        ] );
      ("sta", [ Alcotest.test_case "file pipeline" `Quick test_sta_pipeline ]);
    ]
