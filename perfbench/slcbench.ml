(* slcbench: one benchmark workload per process.

     slcbench.exe --workload charlib|ssta|serve --seed N --seconds S --trace 0|1
     slcbench.exe gen-charlib-ref TOLERANCE_PCT > perfbench/data/charlib_ref.txt
     slcbench.exe gen-ssta-digests > perfbench/data/ssta_digests.txt

   Runs from the root of the checkout.  The human-readable summary goes
   to stdout before the last line, which is the JSON result; traced
   runs (--trace 1) also print their span table to stderr. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: slcbench.exe --workload charlib|ssta|serve --seed N --seconds S \
     --trace 0|1";
  exit 2

let run workload ~seed ~seconds ~trace =
  let workload =
    match workload with
    | "charlib" -> Charlib.run
    | "ssta" -> Ssta.run
    | "serve" -> Serve.run
    | w ->
      Printf.eprintf "slcbench: unknown workload %S\n" w;
      exit 2
  in
  let result =
    Fun.protect
      ~finally:(fun () -> Work.rm_rf Work.root)
      (fun () -> workload ~seed ~seconds ~trace)
  in
  if trace then Trace.print_table stderr;
  let catalogue = if trace then Metrics.per_layer else Metrics.end_to_end in
  print_endline (Metrics.json catalogue result)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen-charlib-ref"; tol ] ->
    Charlib.gen_reference ~tolerance_pct:(float_of_string tol)
  | [ "gen-ssta-digests" ] -> Ssta.gen_digests ()
  | args ->
    let rec parse acc = function
      | [] -> acc
      | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let trace =
      match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    run (get "workload") ~seed:(int "seed") ~seconds:(float_of_int (int "seconds")) ~trace
