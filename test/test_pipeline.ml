(* End-to-end pipeline tests on the corpus: learn rules from the original
   ticket of each case, then enforce them across the case's history. The
   headline property of the paper: the rule learned from incident #1 flags
   the regression (stage 2) that the incident's own regression tests miss,
   and is clean on the fixed versions (stages 1 and 3). *)

let validate_case (c : Corpus.Case.t) () =
  match Corpus.Case.validate c with Ok () -> () | Error m -> Alcotest.fail m

let learn_book (c : Corpus.Case.t) =
  let ticket = Corpus.Case.original_ticket c in
  let outcome = Lisa.Pipeline.learn ticket in
  if outcome.Lisa.Pipeline.accepted = [] then
    Alcotest.fail
      (Fmt.str "no rules accepted for %s; rejected: %s" c.Corpus.Case.case_id
         (String.concat "; "
            (List.map
               (fun (r, why) -> Semantics.Rule.to_string r ^ " (" ^ why ^ ")")
               outcome.Lisa.Pipeline.rejected)));
  Semantics.Rulebook.of_rules ~system:c.Corpus.Case.system
    outcome.Lisa.Pipeline.accepted

let enforce_stage (c : Corpus.Case.t) book stage =
  Lisa.Pipeline.enforce (Corpus.Case.program_at c stage) book

let assert_flagged c book stage =
  let reports = enforce_stage c book stage in
  if not (List.exists Engine.Checker.has_violations reports) then
    Alcotest.fail
      (Fmt.str "%s stage %d: regression NOT flagged.\n%s" c.Corpus.Case.case_id stage
         (String.concat "\n" (List.map Engine.Checker.report_summary reports)))

let assert_clean c book stage =
  let reports = enforce_stage c book stage in
  match List.find_opt Engine.Checker.has_violations reports with
  | None -> ()
  | Some r ->
      Alcotest.fail
        (Fmt.str "%s stage %d: false positive: %s" c.Corpus.Case.case_id stage
           (Engine.Checker.report_summary r))

(* the headline experiment for one case *)
let end_to_end (c : Corpus.Case.t) () =
  let book = learn_book c in
  (* the rule would have flagged the original buggy version too *)
  assert_flagged c book 0;
  (* flagged on every regression stage, clean on every fixed stage *)
  let rec go stage =
    if stage < c.Corpus.Case.n_stages then begin
      if List.mem stage c.Corpus.Case.regression_stages then assert_flagged c book stage
      else assert_clean c book stage;
      go (stage + 1)
    end
  in
  go 1

(* regression tests added for bug #1 pass on the regressed version: the
   tests-only strategy misses the recurrence (the gap of Figure 4) *)
let tests_only_misses (c : Corpus.Case.t) () =
  let ticket = Corpus.Case.original_ticket c in
  let stage2 = Corpus.Case.program_at c 2 in
  List.iter
    (fun test ->
      match Minilang.Interp.run_test stage2 test with
      | Minilang.Interp.Passed -> ()
      | Minilang.Interp.Failed m | Minilang.Interp.Errored m ->
          Alcotest.fail (Fmt.str "regression test %s unexpectedly catches stage 2: %s" test m))
    ticket.Oracle.Ticket.regression_tests

let case_tests (c : Corpus.Case.t) =
  [
    Alcotest.test_case (c.Corpus.Case.case_id ^ " stages valid") `Quick (validate_case c);
    Alcotest.test_case (c.Corpus.Case.case_id ^ " end-to-end") `Quick (end_to_end c);
    Alcotest.test_case
      (c.Corpus.Case.case_id ^ " tests-only misses regression")
      `Quick (tests_only_misses c);
  ]

(* corpus-level invariants from the §2.1 study *)
let test_corpus_counts () =
  Alcotest.(check int) "16 cases" 16 (Corpus.Registry.case_count Corpus.Registry.builtin);
  Alcotest.(check int) "34 bugs" 34 (Corpus.Registry.bug_count Corpus.Registry.builtin);
  Alcotest.(check int) "46 ephemeral bugs" 46
    (Corpus.Registry.ephemeral_total Corpus.Registry.builtin);
  let share = Corpus.Registry.old_share Corpus.Registry.builtin in
  Alcotest.(check bool)
    (Fmt.str "old-semantics share ~68%% (got %.1f%%)" (100. *. share))
    true
    (share > 0.60 && share < 0.75)

let test_system_versions_build () =
  List.iter
    (fun system ->
      List.iter
        (fun version ->
          let p = Corpus.Registry.program_of Corpus.Registry.builtin system ~version in
          match Minilang.Typecheck.check_program p with
          | [] -> ()
          | errs ->
              Alcotest.fail
                (Fmt.str "%s v%d: %s" system version
                   (Minilang.Typecheck.errors_to_string errs)))
        (List.init (Corpus.Registry.builtin.max_version + 1) Fun.id))
    Corpus.Registry.builtin.systems

let test_system_suites_green () =
  (* every assembled release is green in CI — the corpus bugs are latent *)
  List.iter
    (fun system ->
      let b = Corpus.Registry.builtin in
      let p = Corpus.Registry.program_of b system ~version:b.max_version in
      List.iter
        (fun name ->
          match Minilang.Interp.run_test p name with
          | Minilang.Interp.Passed -> ()
          | Minilang.Interp.Failed m | Minilang.Interp.Errored m ->
              Alcotest.fail (Fmt.str "%s latest: %s: %s" system name m))
        (Minilang.Interp.test_names p))
    Corpus.Registry.builtin.systems

let suite =
  [
    ("pipeline.zookeeper", List.concat_map case_tests Corpus.Zookeeper.cases);
    ("pipeline.hbase", List.concat_map case_tests Corpus.Hbase.cases);
    ("pipeline.hdfs", List.concat_map case_tests Corpus.Hdfs.cases);
    ("pipeline.cassandra", List.concat_map case_tests Corpus.Cassandra.cases);
    ( "pipeline.corpus",
      [
        Alcotest.test_case "study counts" `Quick test_corpus_counts;
        Alcotest.test_case "assembled releases typecheck" `Quick test_system_versions_build;
        Alcotest.test_case "assembled releases green" `Quick test_system_suites_green;
      ] );
  ]
