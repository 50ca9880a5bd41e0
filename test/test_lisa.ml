(* Tests for the checker configurations, the pipeline's cross-check, the
   CI gate, the model checker, and the composition experiment. *)

let zk = List.hd Corpus.Zookeeper.cases

(* ------------------------------------------------------------------ *)
(* Checker configurations                                              *)
(* ------------------------------------------------------------------ *)

let learned_rule () =
  let inf = Oracle.Inference.infer (Corpus.Case.original_ticket zk) in
  Semantics.Rule.generalize (List.hd inf.Oracle.Inference.inf_rules)

let test_checker_direct_misses () =
  let rule = learned_rule () in
  let p = Corpus.Case.program_at zk 2 in
  let complement = Engine.Checker.check_rule p rule in
  let direct =
    Engine.Checker.check_rule
      ~config:{ Engine.Checker.default_config with method_ = Direct }
      p rule
  in
  Alcotest.(check bool) "complement catches" true
    (complement.Engine.Checker.rep_violations <> []);
  Alcotest.(check bool) "direct misses" true (direct.Engine.Checker.rep_violations = [])

let test_checker_pruning_equivalent_verdicts () =
  let rule = learned_rule () in
  let p = Corpus.Case.program_at zk 2 in
  let with_p = Engine.Checker.check_rule p rule in
  let without =
    Engine.Checker.check_rule
      ~config:{ Engine.Checker.default_config with Engine.Checker.prune = false }
      p rule
  in
  Alcotest.(check int) "same number of violations"
    (List.length with_p.Engine.Checker.rep_violations)
    (List.length without.Engine.Checker.rep_violations);
  Alcotest.(check bool) "pruned records no more branches" true
    (with_p.Engine.Checker.rep_branches_recorded
    <= without.Engine.Checker.rep_branches_recorded)

let test_checker_counts_consistent () =
  let rule = learned_rule () in
  let r = Engine.Checker.check_rule (Corpus.Case.program_at zk 2) rule in
  Alcotest.(check int) "verified + violations = traces"
    (List.length r.Engine.Checker.rep_traces)
    (List.length r.Engine.Checker.rep_verified + List.length r.Engine.Checker.rep_violations);
  Alcotest.(check bool) "targets resolved" true (r.Engine.Checker.rep_targets > 0);
  Alcotest.(check bool) "static paths enumerated" true (r.Engine.Checker.rep_static_paths > 0)

let test_checker_no_tests_selected_falls_back () =
  (* a program with no test functions: the checker degrades gracefully *)
  let p =
    Minilang.Parser.program
      "class C { method f() { work(); } } method work() { }"
  in
  let rule =
    Semantics.Rule.make ~rule_id:"r" ~description:"d" ~high_level:"h" ~origin:"o"
      (Semantics.Rule.State_guard
         {
           target = Semantics.Rule.Call_to { callee = "work"; in_method = None };
           condition = Smt.Formula.bvar "C.flag";
         })
  in
  let r = Engine.Checker.check_rule p rule in
  Alcotest.(check int) "no traces without tests" 0 (List.length r.Engine.Checker.rep_traces);
  Alcotest.(check bool) "paths reported uncovered" true
    (r.Engine.Checker.rep_uncovered_paths <> [])

(* ------------------------------------------------------------------ *)
(* Pipeline cross-check                                                *)
(* ------------------------------------------------------------------ *)

let test_cross_check_rejects_flipped_rule () =
  (* force the hallucination path: a flipped rule contradicts the patched
     version, so grounding must reject it *)
  let ticket = Corpus.Case.original_ticket zk in
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  let flipped_rejected =
    List.exists
      (fun seed ->
        let config =
          {
            Lisa.Pipeline.default_config with
            Lisa.Pipeline.noise = { Oracle.Inference.epsilon = 1.0; seed };
          }
        in
        let o = Lisa.Pipeline.learn ~config ticket in
        List.exists
          (fun (r, _) ->
            Astring_contains.contains r.Semantics.Rule.rule_id ".flip"
            || Astring_contains.contains r.Semantics.Rule.rule_id ".ghost")
          o.Lisa.Pipeline.rejected)
      seeds
  in
  Alcotest.(check bool) "flipped/ghost rule rejected for some seed" true flipped_rejected

let test_cross_check_accepts_clean_rule () =
  let o = Lisa.Pipeline.learn (Corpus.Case.original_ticket zk) in
  Alcotest.(check int) "accepted" 1 (List.length o.Lisa.Pipeline.accepted);
  Alcotest.(check int) "nothing rejected" 0 (List.length o.Lisa.Pipeline.rejected)

let test_pipeline_log_stages () =
  let o = Lisa.Pipeline.learn (Corpus.Case.original_ticket zk) in
  let stages = List.map (fun (l : Lisa.Pipeline.stage_log) -> l.Lisa.Pipeline.stage) o.Lisa.Pipeline.log in
  Alcotest.(check (list string)) "figure 5 stages"
    [ "collect"; "infer"; "translate"; "cross-check" ]
    stages

(* ------------------------------------------------------------------ *)
(* CI gate                                                             *)
(* ------------------------------------------------------------------ *)

let test_ci_blocks_regression_stage () =
  let r = Lisa.Ci.replay zk in
  Alcotest.(check (list int)) "stage 2 blocked" [ 2 ] (Lisa.Ci.blocked_stages r);
  (* rules were learned at stages 1 and 3 *)
  let learned =
    List.filter_map
      (function Lisa.Ci.Learned { stage; _ } -> Some stage | _ -> None)
      r.Lisa.Ci.events
  in
  Alcotest.(check (list int)) "learned at fix stages" [ 1; 3 ] learned

let test_ci_all_cases_block_regressions () =
  List.iter
    (fun (c : Corpus.Case.t) ->
      let r = Lisa.Ci.replay c in
      List.iter
        (fun stage ->
          if not (List.mem stage (Lisa.Ci.blocked_stages r)) then
            Alcotest.fail
              (Fmt.str "%s: regression stage %d not blocked" c.Corpus.Case.case_id stage))
        c.Corpus.Case.regression_stages)
    Corpus.Registry.builtin.cases

let test_ci_no_test_failures () =
  let r = Lisa.Ci.replay zk in
  let failures =
    List.filter (function Lisa.Ci.Test_failure _ -> true | _ -> false) r.Lisa.Ci.events
  in
  Alcotest.(check int) "suites stay green" 0 (List.length failures)

(* ------------------------------------------------------------------ *)
(* Model checker                                                       *)
(* ------------------------------------------------------------------ *)

let counter_scenario inv_body =
  let src =
    Fmt.str
      {|
class Counter {
  field n: int = 0;
}
method mcInit(): Counter {
  return new Counter();
}
method mcOpInc(c: Counter) {
  c.n = c.n + 1;
}
method mcOpReset(c: Counter) {
  c.n = 0;
}
method mcInv(c: Counter): bool {
  %s
}
|}
      inv_body
  in
  {
    Mc.Explorer.program = Minilang.Parser.program src;
    init = "mcInit";
    ops = [ "mcOpInc"; "mcOpReset" ];
    invariant = "mcInv";
  }

let test_mc_safe () =
  match Mc.Explorer.explore (counter_scenario "return c.n >= 0;") with
  | Mc.Explorer.Safe s ->
      Alcotest.(check bool) "explored sequences" true (s.Mc.Explorer.sequences > 0)
  | o -> Alcotest.fail (Mc.Explorer.outcome_to_string o)

let test_mc_finds_shortest_violation () =
  match Mc.Explorer.explore (counter_scenario "return c.n < 2;") with
  | Mc.Explorer.Unsafe (v, _) ->
      Alcotest.(check (list string)) "shortest trace" [ "mcOpInc"; "mcOpInc" ]
        (List.map (fun (s : Mc.Explorer.step) -> s.Mc.Explorer.op) v.Mc.Explorer.v_trace)
  | o -> Alcotest.fail (Mc.Explorer.outcome_to_string o)

let test_mc_rejections_counted () =
  let src =
    {|
class Door {
  field open_: bool = false;
}
method mcInit(): Door {
  return new Door();
}
method mcOpOpen(d: Door) {
  if (d.open_) {
    throw "already open";
  }
  d.open_ = true;
}
method mcInv(d: Door): bool {
  return true;
}
|}
  in
  let sc =
    {
      Mc.Explorer.program = Minilang.Parser.program src;
      init = "mcInit";
      ops = [ "mcOpOpen" ];
      invariant = "mcInv";
    }
  in
  match Mc.Explorer.explore ~config:{ Mc.Explorer.default_config with Mc.Explorer.depth = 2 } sc with
  | Mc.Explorer.Safe s ->
      (* sequence [open; open]: the second is rejected *)
      Alcotest.(check int) "one rejection" 1 s.Mc.Explorer.rejections
  | o -> Alcotest.fail (Mc.Explorer.outcome_to_string o)

let test_mc_engine_error_reported () =
  let src =
    {|
method mcInit(): any { return null; }
method mcOpBoom(x: any) { var l: list = null; listAdd(l, 1); }
method mcInv(x: any): bool { return true; }
|}
  in
  let sc =
    {
      Mc.Explorer.program = Minilang.Parser.program src;
      init = "mcInit";
      ops = [ "mcOpBoom" ];
      invariant = "mcInv";
    }
  in
  match Mc.Explorer.explore sc with
  | Mc.Explorer.Engine_error m ->
      Alcotest.(check bool) "mentions null" true (Astring_contains.contains m "null")
  | o -> Alcotest.fail (Mc.Explorer.outcome_to_string o)

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)
(* ------------------------------------------------------------------ *)

let test_composition_all_supported () =
  List.iter
    (fun (r : Lisa.Composition.result) ->
      if not r.Lisa.Composition.res_composition_holds then
        Alcotest.fail (r.Lisa.Composition.res_case ^ ": composition claim not supported"))
    (Lisa.Composition.run ())

let test_composition_regression_trace_is_the_incident () =
  let results = Lisa.Composition.run () in
  let zk_result =
    List.find
      (fun (r : Lisa.Composition.result) -> r.Lisa.Composition.res_case = "zk-ephemeral")
      results
  in
  let stage2 =
    List.find
      (fun (s : Lisa.Composition.stage_result) -> s.Lisa.Composition.sr_stage = 2)
      zk_result.Lisa.Composition.res_stages
  in
  match stage2.Lisa.Composition.sr_bounded with
  | Mc.Explorer.Unsafe (v, _) ->
      let ops = List.map (fun (s : Mc.Explorer.step) -> s.Mc.Explorer.op) v.Mc.Explorer.v_trace in
      (* the synthesized trace is the ZK-1208/1496 incident: a close
         followed by a learner-path create *)
      Alcotest.(check (list string)) "incident trace"
        [ "mcOpClose"; "mcOpCreateLearner" ] ops
  | o -> Alcotest.fail ("expected unsafe, got " ^ Mc.Explorer.outcome_to_string o)

(* ------------------------------------------------------------------ *)
(* Experiments sanity                                                  *)
(* ------------------------------------------------------------------ *)

let test_compare_headline () =
  let t = Lisa.Compare.run () in
  Alcotest.(check int) "testing misses all" 0 t.Lisa.Compare.testing_caught;
  Alcotest.(check int) "lisa catches all" t.Lisa.Compare.total t.Lisa.Compare.lisa_caught

let test_unknown_bugs_found () =
  let fs = Lisa.Experiments.Unknown_bugs.run () in
  Alcotest.(check (list string)) "both paper bugs"
    [ "HBASE-29296"; "HDFS-17768" ]
    (List.map (fun (f : Lisa.Experiments.Unknown_bugs.finding) -> f.Lisa.Experiments.Unknown_bugs.f_bug_id) fs);
  List.iter
    (fun (f : Lisa.Experiments.Unknown_bugs.finding) ->
      Alcotest.(check bool) "violating methods found" true
        (f.Lisa.Experiments.Unknown_bugs.f_methods <> []))
    fs;
  let hb = List.hd fs in
  Alcotest.(check (list string)) "hbase method"
    [ "SnapshotManager.copyTableFromSnapshot" ]
    hb.Lisa.Experiments.Unknown_bugs.f_methods

let test_generalization_rows () =
  match Lisa.Experiments.Generalization.run () with
  | [ specific; generalized; naive ] ->
      Alcotest.(check bool) "specific misses" false
        specific.Lisa.Experiments.Generalization.g_catches_regression;
      Alcotest.(check bool) "generalized catches" true
        generalized.Lisa.Experiments.Generalization.g_catches_regression;
      Alcotest.(check int) "generalized clean on fixed" 0
        generalized.Lisa.Experiments.Generalization.g_false_positives;
      Alcotest.(check bool) "naive has false positives" true
        (naive.Lisa.Experiments.Generalization.g_false_positives > 0)
  | _ -> Alcotest.fail "expected three rows"

let test_system_scan_shape () =
  let results = Lisa.System_scan.run () in
  List.iter
    (fun (r : Lisa.System_scan.system_result) ->
      let row v =
        List.find
          (fun (x : Lisa.System_scan.version_row) -> x.Lisa.System_scan.vr_version = v)
          r.Lisa.System_scan.sys_rows
      in
      let findings v = (row v).Lisa.System_scan.vr_violating_rules in
      Alcotest.(check (list string)) (r.Lisa.System_scan.sys_name ^ " v1 clean") [] (findings 1);
      Alcotest.(check (list string)) (r.Lisa.System_scan.sys_name ^ " v3 clean") [] (findings 3);
      (* every case of the system is flagged at v2 (lock cases may
         contribute several rules, so compare case coverage not counts) *)
      let cases = Corpus.Registry.cases_of Corpus.Registry.builtin r.Lisa.System_scan.sys_name in
      List.iter
        (fun (c : Corpus.Case.t) ->
          let origin = List.hd c.Corpus.Case.bug_ids in
          if not (List.exists (fun id -> Astring_contains.contains id origin) (findings 2))
          then
            Alcotest.fail
              (Fmt.str "%s not flagged at v2 (findings: %s)" origin
                 (String.concat ", " (findings 2))))
        cases;
      (* v5 carries only the two unknown bugs (rule ids embed statement
         numbers, so compare by originating ticket) *)
      let expected_v5 =
        match r.Lisa.System_scan.sys_name with
        | "hbase" -> [ "HBASE-27671" ]
        | "hdfs" -> [ "HDFS-13924" ]
        | _ -> []
      in
      let origins =
        List.map
          (fun id ->
            match String.index_opt id '.' with
            | Some i -> String.sub id 0 i
            | None -> id)
          (findings 5)
      in
      Alcotest.(check (list string))
        (r.Lisa.System_scan.sys_name ^ " v5 findings")
        expected_v5 origins)
    results

let test_study_totals () =
  let s = Lisa.Study.run () in
  Alcotest.(check int) "16 cases" 16 s.Lisa.Study.total_cases;
  Alcotest.(check int) "34 bugs" 34 s.Lisa.Study.total_bugs;
  Alcotest.(check int) "4 systems" 4 (List.length s.Lisa.Study.rows)

let suite =
  [
    ( "lisa.checker",
      [
        Alcotest.test_case "direct check misses" `Quick test_checker_direct_misses;
        Alcotest.test_case "pruning preserves verdicts" `Quick
          test_checker_pruning_equivalent_verdicts;
        Alcotest.test_case "report counts consistent" `Quick test_checker_counts_consistent;
        Alcotest.test_case "no tests: uncovered paths" `Quick
          test_checker_no_tests_selected_falls_back;
      ] );
    ( "lisa.pipeline",
      [
        Alcotest.test_case "cross-check rejects corrupted" `Quick
          test_cross_check_rejects_flipped_rule;
        Alcotest.test_case "cross-check accepts clean" `Quick test_cross_check_accepts_clean_rule;
        Alcotest.test_case "log stages" `Quick test_pipeline_log_stages;
      ] );
    ( "lisa.ci",
      [
        Alcotest.test_case "blocks regression stage" `Quick test_ci_blocks_regression_stage;
        Alcotest.test_case "all cases block regressions" `Slow test_ci_all_cases_block_regressions;
        Alcotest.test_case "suites stay green" `Quick test_ci_no_test_failures;
      ] );
    ( "lisa.mc",
      [
        Alcotest.test_case "safe scenario" `Quick test_mc_safe;
        Alcotest.test_case "shortest violation" `Quick test_mc_finds_shortest_violation;
        Alcotest.test_case "guard rejections counted" `Quick test_mc_rejections_counted;
        Alcotest.test_case "engine errors reported" `Quick test_mc_engine_error_reported;
      ] );
    ( "lisa.composition",
      [
        Alcotest.test_case "composition supported on all scenarios" `Slow
          test_composition_all_supported;
        Alcotest.test_case "synthesized trace is the incident" `Quick
          test_composition_regression_trace_is_the_incident;
      ] );
    ( "lisa.experiments",
      [
        Alcotest.test_case "comparison headline" `Slow test_compare_headline;
        Alcotest.test_case "unknown bugs found" `Quick test_unknown_bugs_found;
        Alcotest.test_case "generalization rows" `Quick test_generalization_rows;
        Alcotest.test_case "whole-system scan shape" `Slow test_system_scan_shape;
        Alcotest.test_case "study totals" `Quick test_study_totals;
      ] );
  ]
