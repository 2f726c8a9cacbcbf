(* Linter engine tests: each rule must fire on its fixture at exactly
   the expected (rule, line) set, and must stay silent on the clean
   fixture and on the fixtures' annotated escape hatches.

   The fixtures are compiled as a normal dune library next to this
   test, so their cmt files are guaranteed fresh: the test reads them
   from the library's .objs directory rather than shelling out to the
   slc_lint executable. *)

module Engine = Slc_lint_engine.Engine

let cmt name =
  Filename.concat "fixtures/.slc_lint_fixtures.objs/byte"
    ("slc_lint_fixtures__" ^ name ^ ".cmt")

let cmti name = cmt name ^ "i"

let findings ?treat_as_lib name =
  Engine.lint_cmt ?treat_as_lib (cmt name)

let summarize fs =
  List.map (fun f -> (Engine.rule_id f.Engine.rule, f.Engine.line)) fs

let hits = Alcotest.(list (pair string int))

let check_fixture ?(treat_as_lib = true) name expected () =
  Alcotest.check hits name expected
    (summarize (findings ~treat_as_lib name))

let has_sub haystack needle =
  let rec search i =
    i + String.length needle <= String.length haystack
    && (String.sub haystack i (String.length needle) = needle
       || search (i + 1))
  in
  search 0

let message_at fs line =
  match List.find_opt (fun f -> f.Engine.line = line) fs with
  | Some f -> f.Engine.message
  | None -> Alcotest.fail (Printf.sprintf "no finding at line %d" line)

let test_r1 =
  check_fixture "Fix_r1" [ ("R1", 3); ("R1", 5); ("R1", 7) ]

let test_r2 =
  check_fixture "Fix_r2"
    [ ("R2", 3); ("R2", 5); ("R2", 9); ("R2", 23); ("R2", 27) ]

let test_r3 =
  check_fixture "Fix_r3" [ ("R3", 3); ("R3", 5); ("R3", 7) ]

let test_r4 =
  check_fixture "Fix_r4" [ ("R4", 6); ("R4", 13) ]

let test_r5 = check_fixture "Fix_r5" [ ("R5", 2) ]

let test_r5_clean = check_fixture "Fix_r5_clean" []

let test_r6 =
  check_fixture "Fix_r6" [ ("R6", 12); ("R6", 22); ("R6", 27); ("R6", 35) ]

let test_r6_clean = check_fixture "Fix_r6_clean" []

let test_r7 =
  check_fixture "Fix_r7" [ ("R7", 2); ("R7", 4); ("R7", 6); ("R7", 13) ]

let test_r7_clean = check_fixture "Fix_r7_clean" []

let test_clean = check_fixture "Fix_clean" []

(* R8 reads Fix_r8's interface against Fix_r8 and Fix_r8_user as
   shipped code and Fix_r8_test as a test (over a build tree the split
   is by source directory, see [test_r8_test_sources]). *)
let r8_findings () =
  Engine.dead_exports ~interfaces:[ cmti "Fix_r8" ]
    ~shipped:[ cmt "Fix_r8"; cmt "Fix_r8_user" ]
    ~tests:[ cmt "Fix_r8_test" ]

(* Clean: used_elsewhere, pinned (annotated with a reason), via_alias
   (module alias), at_toplevel (let () =), in_functor (functor body).
   Findings: test_only (line 6), own_only (8), unreasoned (12). *)
let test_r8 () =
  Alcotest.check hits "Fix_r8" [ ("R8", 6); ("R8", 8); ("R8", 12) ]
    (summarize (r8_findings ()))

let test_r8_reports () =
  let fs = r8_findings () in
  let test_only = message_at fs 6 in
  Alcotest.(check bool)
    "test-only export: named, with both fixes" true
    (has_sub test_only "[Slc_lint_fixtures.Fix_r8.test_only]"
    && has_sub test_only "only tests reference it"
    && has_sub test_only "slc.test_only");
  Alcotest.(check bool)
    "own-module export: drop it from the .mli" true
    (has_sub (message_at fs 8) "only its own module uses it");
  Alcotest.(check bool)
    "annotation without a reason" true
    (has_sub (message_at fs 12) "needs a reason string")

(* Over a build tree, references from a source under a test/ directory
   do not count; the fixtures themselves live under one. *)
let test_r8_test_sources () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check bool) src expected (Engine.is_test_source src))
    [
      ("test/test_num.ml", true);
      ("perfbench/test/test_perfbench.ml", true);
      ("tools/lint/test/fixtures/fix_r8_user.ml", true);
      ("lib/num/vec.ml", false);
      ("perfbench/ssta.ml", false);
      ("examples/quickstart.ml", false);
      ("lib/test_like.ml", false);
    ]

(* Without --treat-as-lib the fixtures are out of R1's lib/ scope, so
   only the scope-independent rules remain. *)
let test_r1_scope =
  check_fixture ~treat_as_lib:false "Fix_r1" []

let test_messages () =
  let fs = findings ~treat_as_lib:true "Fix_r1" in
  match fs with
  | f :: _ ->
    Alcotest.(check bool)
      "message names the construct and the escape hatch" true
      (has_sub f.Engine.message "failwith"
      && has_sub f.Engine.message "slc.raw_exn")
  | [] -> Alcotest.fail "expected findings in Fix_r1"

(* R5 findings must carry the full offending call chain. *)
let test_r5_chain () =
  let m = message_at (findings ~treat_as_lib:true "Fix_r5") 2 in
  Alcotest.(check bool)
    "chain hot_entry -> mid -> leaf_alloc reported" true
    (has_sub m "Fix_r5.hot_entry -> Fix_r5.mid -> Fix_r5.leaf_alloc"
    && has_sub m "tuple literal");
  Alcotest.(check bool)
    "escape hatches named" true
    (has_sub m "slc.hot" && has_sub m "slc.alloc_ok")

(* R6 cycle findings must name both locks of the cycle; the
   blocking-call findings must name the blocking primitive (directly
   or through the witness chain). *)
let test_r6_reports () =
  let fs = findings ~treat_as_lib:true "Fix_r6" in
  let cycle = message_at fs 12 in
  Alcotest.(check bool)
    "cycle names both locks" true
    (has_sub cycle "lock-order cycle"
    && has_sub cycle "Fix_r6.lock_a"
    && has_sub cycle "Fix_r6.lock_b");
  let interproc_cycle = message_at fs 22 in
  Alcotest.(check bool)
    "interprocedural edge produces the same cycle" true
    (has_sub interproc_cycle "lock-order cycle");
  let blocking = message_at fs 27 in
  Alcotest.(check bool)
    "direct blocking call named" true
    (has_sub blocking "held across blocking call"
    && has_sub blocking "Parallel.map");
  let witness = message_at fs 35 in
  Alcotest.(check bool)
    "witness chain to the blocking call reported" true
    (has_sub witness "Fix_r6.submit -> Parallel.map")

(* R7 findings must name the construct and the root chain. *)
let test_r7_reports () =
  let fs = findings ~treat_as_lib:true "Fix_r7" in
  let clock = message_at fs 2 in
  Alcotest.(check bool)
    "clock reachable through the root chain" true
    (has_sub clock "Unix.gettimeofday"
    && has_sub clock "Fix_r7.entry -> Fix_r7.stamp");
  let phys = message_at fs 4 in
  Alcotest.(check bool)
    "float physical equality named" true
    (has_sub phys "physical equality");
  let fold = message_at fs 6 in
  Alcotest.(check bool)
    "Hashtbl.fold named" true
    (has_sub fold "Hashtbl.fold")

(* The per-rule enable flag must drop everything else. *)
let test_rule_filter () =
  let only_r7 = Engine.lint_cmt ~treat_as_lib:true ~rules:[ Engine.R7 ] (cmt "Fix_r5") in
  Alcotest.check hits "R5 fixture is silent under --rules R7" []
    (summarize only_r7);
  let only_r5 = Engine.lint_cmt ~treat_as_lib:true ~rules:[ Engine.R5 ] (cmt "Fix_r5") in
  Alcotest.check hits "R5 fixture still fires under --rules R5" [ ("R5", 2) ]
    (summarize only_r5);
  Alcotest.(check bool) "R8 is a rule id" true
    (Engine.rule_of_id "R8" = Some Engine.R8)

(* The resolved def/use graph behind R5–R7 (--dump-callgraph). *)
let test_callgraph () =
  let lines = Engine.callgraph_cmt (cmt "Fix_r5") in
  Alcotest.(check bool)
    "hot_entry -> mid edge present" true
    (List.mem "Fix_r5.hot_entry -> Fix_r5.mid" lines);
  Alcotest.(check bool)
    "mid -> leaf_alloc edge present" true
    (List.mem "Fix_r5.mid -> Fix_r5.leaf_alloc" lines);
  Alcotest.(check bool)
    "stdlib calls are marked external" true
    (List.exists (fun l -> has_sub l "(external)") lines)

let test_baseline_roundtrip () =
  let fs = findings ~treat_as_lib:true "Fix_r2" in
  let path = Filename.temp_file "slc_lint_test" ".baseline" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Engine.save_baseline path fs;
      match Engine.load_baseline path with
      | Error e -> Alcotest.fail e
      | Ok keys ->
        Alcotest.(check (list string))
          "baseline suppresses exactly the saved findings"
          (List.map Engine.finding_key fs)
          keys)

(* Baseline entries that no longer fire must surface as stale
   (--forbid-stale turns them into a failure in the driver). *)
let test_stale_keys () =
  let fs = findings ~treat_as_lib:true "Fix_r6" in
  let live = List.map Engine.finding_key fs in
  let ghost = "R6|tools/lint/test/fixtures/fix_r6.ml|999|gone" in
  Alcotest.(check (list string))
    "only the dead entry is stale" [ ghost ]
    (Engine.stale_keys ~known:(ghost :: live) fs);
  Alcotest.(check (list string))
    "an exactly-live baseline has no stale entries" []
    (Engine.stale_keys ~known:live fs)

(* --json round-trip: the report must carry every finding with its
   rule id, and the counts must match. *)
let test_json_report () =
  let fresh = findings ~treat_as_lib:true "Fix_r7" in
  let stale = [ "R1|lib/gone.ml|3|old" ] in
  let path = Filename.temp_file "slc_lint_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Engine.write_json ~files_scanned:1 ~fresh ~baselined:[] ~stale oc;
      close_out oc;
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool)
        "counts and rule ids serialized" true
        (has_sub s "\"files_scanned\":1"
        && has_sub s
             (Printf.sprintf "\"fresh\":%d" (List.length fresh))
        && has_sub s "\"rule\":\"R7\""
        && has_sub s "\"stale_baseline\":[\"R1|lib/gone.ml|3|old\"]");
      List.iter
        (fun f ->
          Alcotest.(check bool)
            ("finding at line " ^ string_of_int f.Engine.line ^ " present")
            true
            (has_sub s (Printf.sprintf "\"line\":%d" f.Engine.line)))
        fresh)

let () =
  Alcotest.run "slc_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 error-taxonomy" `Quick test_r1;
          Alcotest.test_case "R2 domain-safety" `Quick test_r2;
          Alcotest.test_case "R3 hot-path-alloc" `Quick test_r3;
          Alcotest.test_case "R4 exception-safety" `Quick test_r4;
          Alcotest.test_case "R5 transitive-hot-alloc" `Quick test_r5;
          Alcotest.test_case "R5 clean fixture is silent" `Quick test_r5_clean;
          Alcotest.test_case "R6 lock-order" `Quick test_r6;
          Alcotest.test_case "R6 clean fixture is silent" `Quick test_r6_clean;
          Alcotest.test_case "R7 determinism" `Quick test_r7;
          Alcotest.test_case "R7 clean fixture is silent" `Quick test_r7_clean;
          Alcotest.test_case "R8 dead-export" `Quick test_r8;
          Alcotest.test_case "R8 test sources" `Quick test_r8_test_sources;
          Alcotest.test_case "clean fixture is silent" `Quick test_clean;
          Alcotest.test_case "R1 scoped to lib/" `Quick test_r1_scope;
          Alcotest.test_case "per-rule enable flags" `Quick test_rule_filter;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "diagnostic text" `Quick test_messages;
          Alcotest.test_case "R5 call-chain text" `Quick test_r5_chain;
          Alcotest.test_case "R6 cycle and blocking text" `Quick test_r6_reports;
          Alcotest.test_case "R7 root-chain text" `Quick test_r7_reports;
          Alcotest.test_case "R8 finding text" `Quick test_r8_reports;
          Alcotest.test_case "call-graph dump" `Quick test_callgraph;
          Alcotest.test_case "baseline roundtrip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "stale baseline keys" `Quick test_stale_keys;
          Alcotest.test_case "json report" `Quick test_json_report;
        ] );
    ]
