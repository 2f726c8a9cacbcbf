open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

(* ------------------------------------------------------------------ *)
(* A strict JSON reader (RFC 8259 grammar; no NaN/Infinity, no trailing
   commas, nothing after the value). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let bad what = raise (Bad (Printf.sprintf "%s at offset %d" what !pos)) in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> incr pos; ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else bad (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else bad "bad literal"
  in
  let digits () =
    let start = !pos in
    while match peek () with '0' .. '9' -> true | _ -> false do incr pos done;
    if !pos = start then bad "expected digit"
  in
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    if peek () = '.' then (incr pos; digits ());
    (match peek () with
    | 'e' | 'E' ->
      incr pos;
      (match peek () with '+' | '-' -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (match peek () with
        | '"' | '\\' | '/' -> Buffer.add_char b (peek ())
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' -> pos := !pos + 4; Buffer.add_char b '?'
        | _ -> bad "bad escape");
        incr pos;
        go ()
      | c when Char.code c < 0x20 -> bad "control character in string"
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    let v =
      match peek () with
      | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec members acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; members ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> bad "expected , or }"
          in
          members []
      | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> bad "expected , or ]"
          in
          items []
      | '"' -> Str (str ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> number ()
    in
    ws ();
    v
  in
  let v = value () in
  if !pos <> n then bad "trailing data";
  v

let field k = function
  | Obj kv -> ( match List.assoc_opt k kv with Some v -> v | None -> raise (Bad k))
  | _ -> raise (Bad ("not an object: " ^ k))

let strict_json s = match parse_json s with _ -> true | exception (Bad _ | Failure _) -> false

(* ------------------------------------------------------------------ *)

let test_json_reader () =
  check "reader accepts a document" (strict_json {|{"a": [1, -2.5e-3, true, null, "x\"y"]}|});
  List.iter
    (fun s -> check ("reader rejects " ^ s) (not (strict_json s)))
    [ {|{"a": NaN}|}; {|{"a": 1,}|}; {|{"a": 01}|}; {|[1] x|}; {|{"a": inf}|} ]

let test_result_line () =
  let values =
    List.mapi
      (fun i (name, _) ->
        (name, match i mod 4 with 0 -> 1e-300 | 1 -> 12345.0 | 2 -> -0.5 | _ -> 1.0 /. 3.0))
      Metrics.per_layer
  in
  let line =
    Metrics.json Metrics.per_layer
      { Metrics.correct = true; attempted = 7; failed = 0; values }
  in
  match parse_json line with
  | Obj top ->
    check "result has exactly the four keys"
      (List.sort compare (List.map fst top)
      = [ "attempted"; "correct"; "failed"; "metrics" ]);
    let metrics = match field "metrics" (Obj top) with Obj m -> m | _ -> [] in
    check "every catalogue metric is printed"
      (List.map fst metrics = List.map fst Metrics.per_layer);
    List.iter2
      (fun (name, v) (_, m) ->
        check ("value round-trips: " ^ name)
          (field "value" m = Num v && field "unit" m = Str (List.assoc name Metrics.per_layer)))
      values metrics;
    check "non-finite values are refused"
      (match
         Metrics.json Metrics.end_to_end
           { Metrics.correct = true; attempted = 1; failed = 0; values = [ ("setup_s", nan) ] }
       with
      | _ -> false
      | exception Invalid_argument _ -> true)
  | _ | (exception Bad _) -> check ("result line is strict JSON: " ^ line) false

let test_metric_names () =
  let names = List.map fst (Metrics.end_to_end @ Metrics.per_layer) in
  List.iter
    (fun n ->
      check ("metric name well-formed: " ^ n)
        (Metrics.valid_name n && String.length n <= 64))
    names;
  check "metric names unique"
    (List.length (List.sort_uniq compare names) = List.length names)

(* BENCHMARK.json declares the same metrics, with the same units. *)
let test_benchmark_json () =
  let doc =
    parse_json (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)
  in
  let declared key =
    match field key doc with
    | Arr ms ->
      List.map
        (fun m ->
          match (field "name" m, field "unit" m) with
          | Str n, Str u -> (n, u)
          | _ -> raise (Bad key))
        ms
    | _ -> raise (Bad key)
  in
  check "BENCHMARK.json end_to_end matches the catalogue"
    (declared "end_to_end" = Metrics.end_to_end);
  check "BENCHMARK.json per_layer matches the catalogue"
    (declared "per_layer" = Metrics.per_layer)

(* ------------------------------------------------------------------ *)
(* Seeded inputs *)

let test_charlib_inputs () =
  let pool = Inputs.pool () in
  let seeds s = Inputs.process_seeds pool (Inputs.subset ~seed:s) in
  check "same seed, same process-seed set" (seeds 5 = seeds 5);
  check "other seed, other process-seed set" (seeds 5 <> seeds 6);
  let s = seeds 5 in
  check "process seeds indexed 0..n-1"
    (Array.length s = Inputs.subset_size
    && Array.for_all Fun.id (Array.mapi (fun i x -> x.Slc_device.Process.index = i) s));
  let ix = Inputs.subset ~seed:5 in
  check "subset indices distinct and in the pool"
    (Array.for_all (fun i -> i >= 0 && i < Inputs.pool_size) ix
    && List.length (List.sort_uniq compare (Array.to_list ix)) = Array.length ix)

let test_serve_inputs () =
  check "same seed, same netlist bytes" (Inputs.netlist ~seed:3 = Inputs.netlist ~seed:3);
  check "other seed, other netlist" (Inputs.netlist ~seed:3 <> Inputs.netlist ~seed:4);
  let req s c = Inputs.requests ~seed:s ~client:c ~netlist_path:"x.v" in
  check "same seed, same request stream" (req 3 0 = req 3 0 && req 3 1 = req 3 1);
  check "other seed or client, other stream" (req 3 0 <> req 4 0 && req 3 0 <> req 3 1);
  let v = Slc_ssta.Verilog.parse (Inputs.netlist ~seed:3) in
  let dag, ins, outs =
    Slc_ssta.Verilog.to_sdag v Inputs.tech ~vdd:Inputs.tech.Slc_device.Tech.vdd_nom
  in
  ignore dag;
  check "netlist builds a DAG" (List.length ins = Inputs.netlist_inputs && outs <> []);
  let stream = req 3 0 in
  check "every request parses"
    (Array.for_all (fun l -> Result.is_ok (Slc_server.Protocol.parse_request l)) stream);
  check "first request is a delay query" (String.sub stream.(0) 0 6 = "delay ");
  let count k = Array.fold_left (fun a l -> if String.sub l 0 (String.length k) = k then a + 1 else a) 0 stream in
  check "stream mixes delay, slew, pdf and sta"
    (List.for_all (fun k -> count k > 0) [ "delay "; "slew "; "pdf "; "sta " ])

let test_ssta_inputs () =
  check "design seed in range"
    (List.for_all
       (fun s ->
         let d = Inputs.design_seed ~seed:s in
         d >= 0 && d < Inputs.ssta_designs)
       [ 0; 1; 15; 16; -1; max_int; min_int ])

let () =
  test_json_reader ();
  test_result_line ();
  test_metric_names ();
  test_benchmark_json ();
  test_charlib_inputs ();
  test_serve_inputs ();
  test_ssta_inputs ();
  if !failures > 0 then exit 1;
  print_endline "perfbench: all checks passed"
