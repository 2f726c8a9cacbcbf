exception Malformed of string

let fail msg = raise (Malformed msg)

let scope name f =
  try f () with Malformed m -> raise (Malformed (name ^ ": " ^ m))

type t = { mutable lines : string list }

let of_string src =
  {
    lines =
      String.split_on_char '\n' src
      |> List.map String.trim
      |> List.filter (fun l -> l <> "");
  }

let next c =
  match c.lines with
  | [] -> fail "unexpected end of input"
  | l :: rest ->
    c.lines <- rest;
    l

let peek c = match c.lines with [] -> None | l :: _ -> Some l

let finish c =
  match c.lines with
  | [] -> ()
  | l :: _ -> fail ("trailing garbage after end marker: " ^ l)

let fields l = String.split_on_char ' ' l |> List.filter (fun s -> s <> "")

let expect c key =
  let l = next c in
  match fields l with
  | k :: rest when String.equal k key -> rest
  | _ -> fail (Printf.sprintf "expected %S, got %S" key l)

let int s =
  match int_of_string_opt s with
  | Some i when i >= 0 -> i
  | Some _ -> fail ("negative count " ^ s)
  | None -> fail ("bad int " ^ s)

let float s =
  match Hexfloat.of_string_opt s with
  | Some f -> f
  | None -> fail ("bad float " ^ s)

let floats l = Array.of_list (List.map float l)

let quoted ~key l =
  let k = String.length key in
  if not (String.starts_with ~prefix:(key ^ " ") l) then
    fail (Printf.sprintf "expected %S, got %S" key l);
  let rest = String.sub l k (String.length l - k) in
  try Scanf.sscanf rest " %S%!" Fun.id with
  | Scanf.Scan_failure m | Failure m -> fail m
  | End_of_file -> fail ("truncated line: " ^ l)

let axis name = function
  | [] -> fail ("empty axis " ^ name)
  | n :: vals ->
    let n = int n in
    if n < 1 then fail ("bad axis count for " ^ name);
    let a = floats vals in
    if Array.length a <> n then fail ("axis length mismatch for " ^ name);
    match Interp.axis a with
    | Some a -> a
    | None -> fail ("axis not strictly increasing for " ^ name)
