module Cells = Slc_cell.Cells

type instance = {
  cell_name : string;
  instance_name : string;
  connections : (string * string) list;
}

type t = {
  module_name : string;
  inputs : string list;
  outputs : string list;
  wires : string list;
  instances : instance list;
}

exception Parse_error of string

let fail msg = raise (Parse_error msg)

(* ------------------------------------------------------------------ *)
(* Tokenizer: identifiers and the punctuation ( ) . , ;  — comments and
   whitespace dropped. *)

type token = Id of string | Lp | Rp | Dot | Comma | Semi

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let i = ref 0 in
  let is_id c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '\\' || c = '[' || c = ']'
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '(' then (tokens := Lp :: !tokens; incr i)
    else if c = ')' then (tokens := Rp :: !tokens; incr i)
    else if c = '.' then (tokens := Dot :: !tokens; incr i)
    else if c = ',' then (tokens := Comma :: !tokens; incr i)
    else if c = ';' then (tokens := Semi :: !tokens; incr i)
    else if is_id c then begin
      let j = ref !i in
      while !j < n && is_id src.[!j] do
        incr j
      done;
      tokens := Id (String.sub src !i (!j - !i)) :: !tokens;
      i := !j
    end
    else fail (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser *)

let parse src =
  let toks = ref (tokenize src) in
  let next () =
    match !toks with
    | [] -> fail "unexpected end of input"
    | t :: rest ->
      toks := rest;
      t
  in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let expect_id () =
    match next () with Id s -> s | _ -> fail "expected an identifier"
  in
  let expect tok what =
    if next () <> tok then fail ("expected " ^ what)
  in
  let id_list_until_semi () =
    (* id (, id)* ; *)
    let rec go acc =
      let name = expect_id () in
      match next () with
      | Comma -> go (name :: acc)
      | Semi -> List.rev (name :: acc)
      | _ -> fail "expected , or ; in declaration"
    in
    go []
  in
  (match next () with
  | Id "module" -> ()
  | _ -> fail "expected module");
  let module_name = expect_id () in
  expect Lp "(";
  (* port list *)
  let rec ports acc =
    match next () with
    | Id name -> (
      match next () with
      | Comma -> ports (name :: acc)
      | Rp -> List.rev (name :: acc)
      | _ -> fail "expected , or ) in port list")
    | Rp -> List.rev acc
    | _ -> fail "bad port list"
  in
  let port_names = ports [] in
  expect Semi ";";
  let inputs = ref [] and outputs = ref [] and wires = ref [] in
  (* Every declared net and its kind; the lists keep declaration order. *)
  let declared = Hashtbl.create 64 in
  let instances = ref [] in
  let declare kind names =
    List.iter
      (fun name ->
        if Hashtbl.mem declared name then
          fail (Printf.sprintf "net %s declared twice" name);
        Hashtbl.add declared name kind;
        match kind with
        | `Input -> inputs := name :: !inputs
        | `Output -> outputs := name :: !outputs
        | `Wire -> wires := name :: !wires)
      names
  in
  let parse_instance cell_name =
    let instance_name = expect_id () in
    expect Lp "(";
    let rec conns acc =
      expect Dot ".";
      let pin = expect_id () in
      expect Lp "(";
      let net = expect_id () in
      expect Rp ")";
      match next () with
      | Comma -> conns ((pin, net) :: acc)
      | Rp -> List.rev ((pin, net) :: acc)
      | _ -> fail "expected , or ) in connection list"
    in
    let connections = conns [] in
    expect Semi ";";
    instances := { cell_name; instance_name; connections } :: !instances
  in
  let rec body () =
    match peek () with
    | None -> fail "missing endmodule"
    | Some (Id "endmodule") ->
      toks := List.tl !toks
    | Some (Id "input") ->
      toks := List.tl !toks;
      declare `Input (id_list_until_semi ());
      body ()
    | Some (Id "output") ->
      toks := List.tl !toks;
      declare `Output (id_list_until_semi ());
      body ()
    | Some (Id "wire") ->
      toks := List.tl !toks;
      declare `Wire (id_list_until_semi ());
      body ()
    | Some (Id cell_name) ->
      toks := List.tl !toks;
      parse_instance cell_name;
      body ()
    | Some _ -> fail "unexpected token in module body"
  in
  body ();
  let inputs = List.rev !inputs and outputs = List.rev !outputs in
  let wires = List.rev !wires in
  (* Every port must be declared; every referenced net must exist. *)
  List.iter
    (fun p ->
      match Hashtbl.find_opt declared p with
      | Some (`Input | `Output) -> ()
      | Some `Wire | None ->
        fail (Printf.sprintf "port %s lacks an input/output declaration" p))
    port_names;
  List.iter
    (fun inst ->
      List.iter
        (fun (_, net) ->
          if not (Hashtbl.mem declared net) then
            fail
              (Printf.sprintf "instance %s references undeclared net %s"
                 inst.instance_name net))
        inst.connections)
    !instances;
  {
    module_name;
    inputs;
    outputs;
    wires;
    instances = List.rev !instances;
  }

(* ------------------------------------------------------------------ *)
(* DAG construction.  Instances are placed in the order a repeated
   source-order sweep ("place every instance whose inputs are defined,
   until nothing moves") would place them: by (sweep round, source
   index), where an instance's round is the latest round among its
   drivers, plus one for a driver that comes later in the source.  Net
   ids and the fanout-capacitance sums follow the placement order, so
   keeping that order keeps them bitwise; a Kahn pass computes it in
   time linear in the netlist. *)

let to_sdag t tech ~vdd =
  let dag = Sdag.create tech ~vdd in
  let insts = Array.of_list t.instances in
  let n = Array.length insts in
  (* Output net of each instance. *)
  let out_net inst =
    match List.assoc_opt "Y" inst.connections with
    | Some net -> net
    | None ->
      fail (Printf.sprintf "instance %s has no .Y output" inst.instance_name)
  in
  let is_input = Hashtbl.create 16 in
  List.iter (fun name -> Hashtbl.replace is_input name ()) t.inputs;
  (* The instance driving each net, with the multiply-driven check. *)
  let driver = Hashtbl.create (max 16 n) in
  Array.iteri
    (fun i inst ->
      let net = out_net inst in
      if Hashtbl.mem driver net then
        fail (Printf.sprintf "net %s driven more than once" net);
      if Hashtbl.mem is_input net then
        fail (Printf.sprintf "primary input %s driven by %s" net
                inst.instance_name);
      Hashtbl.add driver net i)
    insts;
  let in_pins =
    Array.map
      (fun inst ->
        List.filter (fun (pin, _) -> not (String.equal pin "Y"))
          inst.connections)
      insts
  in
  (* [pending.(i)]: input pins of [i] not yet defined (a pin on an
     undriven internal net never clears); [readers.(d)]: one entry per
     input pin that [d]'s output feeds. *)
  let pending = Array.make n 0 in
  let readers = Array.make n [] in
  Array.iteri
    (fun i pins ->
      List.iter
        (fun (_, net) ->
          if not (Hashtbl.mem is_input net) then begin
            pending.(i) <- pending.(i) + 1;
            match Hashtbl.find_opt driver net with
            | Some d -> readers.(d) <- i :: readers.(d)
            | None -> ()
          end)
        pins)
    in_pins;
  let round = Array.make n 0 in
  let ready = Queue.create () in
  Array.iteri (fun i p -> if p = 0 then Queue.add i ready) pending;
  let max_round = ref 0 in
  while not (Queue.is_empty ready) do
    let d = Queue.pop ready in
    if round.(d) > !max_round then max_round := round.(d);
    List.iter
      (fun i ->
        round.(i) <- max round.(i) (round.(d) + if d > i then 1 else 0);
        pending.(i) <- pending.(i) - 1;
        if pending.(i) = 0 then Queue.add i ready)
      readers.(d)
  done;
  (* Bucket the placeable instances (every input defined) by round,
     each bucket in source order. *)
  let buckets = Array.make (!max_round + 1) [] in
  for i = n - 1 downto 0 do
    if pending.(i) = 0 then buckets.(round.(i)) <- i :: buckets.(round.(i))
  done;
  let nets : (string, Sdag.net) Hashtbl.t = Hashtbl.create (max 16 n) in
  List.iter
    (fun name -> Hashtbl.add nets name (Sdag.input dag name))
    t.inputs;
  let place i =
    let inst = insts.(i) in
    let cell =
      match Cells.by_name inst.cell_name with
      | c -> c
      | exception Not_found ->
        fail (Printf.sprintf "unknown cell type %s" inst.cell_name)
    in
    let pins =
      List.map (fun (pin, net) -> (pin, Hashtbl.find nets net)) in_pins.(i)
    in
    let out =
      match Sdag.gate dag cell ~pins (out_net inst) with
      | net -> net
      | exception Slc_obs.Slc_error.Invalid_input iv ->
        fail iv.Slc_obs.Slc_error.iv_detail
    in
    Hashtbl.replace nets (out_net inst) out
  in
  Array.iter (List.iter place) buckets;
  (match Array.find_index (fun p -> p > 0) pending with
  | None -> ()
  | Some i ->
    fail
      (Printf.sprintf
         "combinational loop or undriven net involving instance %s"
         insts.(i).instance_name));
  (* Undriven internal nets used as gate inputs would have been caught
     above; undriven outputs are reported here. *)
  let lookup name =
    match Hashtbl.find_opt nets name with
    | Some n -> n
    | None -> fail (Printf.sprintf "output %s is never driven" name)
  in
  let ins = List.map (fun n -> (n, Hashtbl.find nets n)) t.inputs in
  let outs = List.map (fun n -> (n, lookup n)) t.outputs in
  (dag, ins, outs)

let sta tech ~oracle ~clock path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error ("netlist: " ^ m)
  | src -> (
    match parse src with
    | exception Parse_error m -> Error ("netlist parse error: " ^ m)
    | v -> (
      match to_sdag v tech ~vdd:tech.Slc_device.Tech.vdd_nom with
      | exception Parse_error m -> Error ("netlist error: " ^ m)
      | dag, _, outputs ->
        let input_arrivals _ =
          Sdag.input_edge ~at:0.0 ~slew:5e-12 ~rises:true
        in
        let rows =
          Sdag.slack_report dag (oracle ()) ~input_arrivals
            ~outputs:(List.map (fun (_, n) -> (n, clock)) outputs)
        in
        Ok
          ( v.module_name,
            List.filter
              (fun r -> r.Sdag.required_time < Float.infinity)
              rows )))
