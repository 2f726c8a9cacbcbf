(* slc_lint: enforce the repo invariants documented in docs/lint.md
   over the cmt files produced by `dune build @check`.

   Usage:
     slc_lint [--build-root DIR] [--baseline FILE] [--update-baseline]
              [--forbid-stale] [--treat-as-lib] [--rules R1,R5,...]
              [--json FILE] [--dump-callgraph] PATH...

   PATHs are build-root-relative source prefixes (e.g. `lib`); any PATH
   ending in `.cmt` is linted directly instead (fixture/debug use).
   Rules are R1..R8; R8 (dead-export) checks the lib/ interfaces under
   the PATHs against every non-test implementation in the build tree,
   so it runs over prefixes only, not over single .cmt files.

   Stale baseline entries (keys that no longer fire) are always
   reported; --forbid-stale additionally makes them fail the run, so a
   committed baseline can never rot.

   Exit codes: 0 clean (or fully baselined), 1 findings (or stale
   baseline entries under --forbid-stale), 2 usage/IO. *)

module Engine = Slc_lint_engine.Engine

let usage () =
  prerr_endline
    "usage: slc_lint [--build-root DIR] [--baseline FILE] \
     [--update-baseline] [--forbid-stale] [--treat-as-lib] \
     [--rules R1,R5,...] [--json FILE] [--dump-callgraph] PATH...\n\
     rules: R1 error-taxonomy, R2 domain-safety, R3 hot-path-alloc, \
     R4 exception-safety, R5 transitive-hot-alloc, R6 lock-order, \
     R7 determinism, R8 dead-export";
  exit 2

let parse_rules s =
  let ids = String.split_on_char ',' s in
  List.map
    (fun id ->
      match Engine.rule_of_id (String.trim id) with
      | Some r -> r
      | None ->
        Printf.eprintf "slc_lint: unknown rule %S (known: R1..R8)\n" id;
        exit 2)
    (List.filter (fun id -> String.trim id <> "") ids)

let () =
  let build_root = ref "." in
  let baseline = ref None in
  let update_baseline = ref false in
  let forbid_stale = ref false in
  let treat_as_lib = ref false in
  let rules = ref Engine.all_rules in
  let json = ref None in
  let dump_callgraph = ref false in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--build-root" :: d :: rest ->
      build_root := d;
      parse rest
    | "--baseline" :: f :: rest ->
      baseline := Some f;
      parse rest
    | "--update-baseline" :: rest ->
      update_baseline := true;
      parse rest
    | "--forbid-stale" :: rest ->
      forbid_stale := true;
      parse rest
    | "--treat-as-lib" :: rest ->
      treat_as_lib := true;
      parse rest
    | "--rules" :: r :: rest ->
      rules := parse_rules r;
      parse rest
    | "--json" :: f :: rest ->
      json := Some f;
      parse rest
    | "--dump-callgraph" :: rest ->
      dump_callgraph := true;
      parse rest
    | ("--build-root" | "--baseline" | "--rules" | "--json") :: [] -> usage ()
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
      usage ()
    | p :: rest ->
      paths := p :: !paths;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let paths = List.rev !paths in
  if paths = [] then usage ();
  let cmt_args, prefix_args =
    List.partition (fun p -> Filename.check_suffix p ".cmt") paths
  in
  if !dump_callgraph then begin
    (* Debugging aid: print the resolved def/use graph and stop. *)
    List.iter
      (fun p ->
        match Engine.callgraph_cmt p with
        | lines -> List.iter print_endline lines
        | exception e ->
          Printf.eprintf "slc_lint: cannot read %s: %s\n" p
            (Printexc.to_string e);
          exit 2)
      cmt_args;
    if prefix_args <> [] then begin
      match Engine.callgraph_tree ~build_root:!build_root prefix_args with
      | Ok lines -> List.iter print_endline lines
      | Error msg ->
        Printf.eprintf "slc_lint: %s\n" msg;
        exit 2
    end;
    exit 0
  end;
  let direct =
    List.concat_map
      (fun p ->
        match Engine.lint_cmt ~treat_as_lib:!treat_as_lib ~rules:!rules p with
        | fs -> fs
        | exception e ->
          Printf.eprintf "slc_lint: cannot read %s: %s\n" p
            (Printexc.to_string e);
          exit 2)
      cmt_args
  in
  let tree_findings, scanned =
    if prefix_args = [] then ([], 0)
    else begin
      match
        Engine.lint_tree ~build_root:!build_root ~treat_as_lib:!treat_as_lib
          ~rules:!rules prefix_args
      with
      | Ok (fs, n) -> (fs, n)
      | Error msg ->
        Printf.eprintf "slc_lint: %s\n" msg;
        exit 2
    end
  in
  let findings =
    List.sort Engine.compare_finding (List.rev_append direct tree_findings)
  in
  if !update_baseline then begin
    match !baseline with
    | None ->
      prerr_endline "slc_lint: --update-baseline requires --baseline FILE";
      exit 2
    | Some path ->
      Engine.save_baseline path findings;
      Printf.printf "slc_lint: wrote %d finding(s) to %s\n"
        (List.length findings) path;
      exit 0
  end;
  let known =
    match !baseline with
    | None -> []
    | Some path -> (
      match Engine.load_baseline path with
      | Ok keys -> keys
      | Error msg ->
        Printf.eprintf "slc_lint: cannot read baseline: %s\n" msg;
        exit 2)
  in
  let fresh, baselined =
    List.partition
      (fun f -> not (List.mem (Engine.finding_key f) known))
      findings
  in
  let stale = Engine.stale_keys ~known findings in
  (match !json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Engine.write_json
      ~files_scanned:(scanned + List.length cmt_args)
      ~fresh ~baselined ~stale oc;
    close_out oc);
  List.iter (Engine.pp_finding stdout) fresh;
  List.iter
    (fun k -> Printf.printf "stale baseline entry (no longer fires): %s\n" k)
    stale;
  Printf.printf "slc_lint: %d finding(s) (%d baselined, %d stale) in %d file(s)\n"
    (List.length fresh) (List.length baselined) (List.length stale)
    (scanned + List.length cmt_args);
  if fresh <> [] || (!forbid_stale && stale <> []) then exit 1
