open Topology

type t = {
  name : string;
  inputs : string list;
  wn_mult : float;
  wp_mult : float;
  pull_down : Topology.t;
  pull_up : Topology.t;
}

let dev ?(w = 1.0) pin = Dev { pin; width_mult = w }

let inv =
  {
    name = "INV";
    inputs = [ "A" ];
    wn_mult = 1.0;
    wp_mult = 2.0;
    pull_down = dev "A";
    pull_up = dev "A";
  }

let nand2 =
  {
    name = "NAND2";
    inputs = [ "A"; "B" ];
    wn_mult = 2.0;
    wp_mult = 2.0;
    pull_down = Series [ dev "A"; dev "B" ];
    pull_up = Parallel [ dev "A"; dev "B" ];
  }

let nand3 =
  {
    name = "NAND3";
    inputs = [ "A"; "B"; "C" ];
    wn_mult = 3.0;
    wp_mult = 2.0;
    pull_down = Series [ dev "A"; dev "B"; dev "C" ];
    pull_up = Parallel [ dev "A"; dev "B"; dev "C" ];
  }

let nand4 =
  {
    name = "NAND4";
    inputs = [ "A"; "B"; "C"; "D" ];
    wn_mult = 4.0;
    wp_mult = 2.0;
    pull_down = Series [ dev "A"; dev "B"; dev "C"; dev "D" ];
    pull_up = Parallel [ dev "A"; dev "B"; dev "C"; dev "D" ];
  }

let nor2 =
  {
    name = "NOR2";
    inputs = [ "A"; "B" ];
    wn_mult = 1.0;
    wp_mult = 4.0;
    pull_down = Parallel [ dev "A"; dev "B" ];
    pull_up = Series [ dev "A"; dev "B" ];
  }

let nor3 =
  {
    name = "NOR3";
    inputs = [ "A"; "B"; "C" ];
    wn_mult = 1.0;
    wp_mult = 6.0;
    pull_down = Parallel [ dev "A"; dev "B"; dev "C" ];
    pull_up = Series [ dev "A"; dev "B"; dev "C" ];
  }

let nor4 =
  {
    name = "NOR4";
    inputs = [ "A"; "B"; "C"; "D" ];
    wn_mult = 1.0;
    wp_mult = 8.0;
    pull_down = Parallel [ dev "A"; dev "B"; dev "C"; dev "D" ];
    pull_up = Series [ dev "A"; dev "B"; dev "C"; dev "D" ];
  }

let aoi21 =
  {
    name = "AOI21";
    inputs = [ "A"; "B"; "C" ];
    wn_mult = 2.0;
    wp_mult = 4.0;
    (* out = not (A.B + C) *)
    pull_down = Parallel [ Series [ dev "A"; dev "B" ]; dev ~w:0.5 "C" ];
    pull_up = Series [ Parallel [ dev "A"; dev "B" ]; dev "C" ];
  }

let oai21 =
  {
    name = "OAI21";
    inputs = [ "A"; "B"; "C" ];
    wn_mult = 2.0;
    wp_mult = 4.0;
    (* out = not ((A + B).C) *)
    pull_down = Series [ Parallel [ dev "A"; dev "B" ]; dev "C" ];
    pull_up = Parallel [ Series [ dev "A"; dev "B" ]; dev ~w:0.5 "C" ];
  }

let aoi22 =
  {
    name = "AOI22";
    inputs = [ "A"; "B"; "C"; "D" ];
    wn_mult = 2.0;
    wp_mult = 4.0;
    (* out = not (A.B + C.D) *)
    pull_down =
      Parallel [ Series [ dev "A"; dev "B" ]; Series [ dev "C"; dev "D" ] ];
    pull_up =
      Series [ Parallel [ dev "A"; dev "B" ]; Parallel [ dev "C"; dev "D" ] ];
  }

let oai22 =
  {
    name = "OAI22";
    inputs = [ "A"; "B"; "C"; "D" ];
    wn_mult = 2.0;
    wp_mult = 4.0;
    (* out = not ((A + B).(C + D)) *)
    pull_down =
      Series [ Parallel [ dev "A"; dev "B" ]; Parallel [ dev "C"; dev "D" ] ];
    pull_up =
      Parallel [ Series [ dev "A"; dev "B" ]; Series [ dev "C"; dev "D" ] ];
  }

let all =
  [ inv; nand2; nand3; nand4; nor2; nor3; nor4; aoi21; oai21; aoi22; oai22 ]

let by_name name =
  match List.find_opt (fun c -> String.equal c.name name) all with
  | Some c -> c
  | None -> raise Not_found

let paper_set = [ inv; nand2; nor2 ]

let logic_value cell ~on =
  (* PMOS devices conduct when their input is low. *)
  let pd = Topology.conducts cell.pull_down ~on in
  let pu = Topology.conducts cell.pull_up ~on:(fun pin -> not (on pin)) in
  match (pu, pd) with
  | true, false -> Some true
  | false, true -> Some false
  | true, true | false, false -> None
