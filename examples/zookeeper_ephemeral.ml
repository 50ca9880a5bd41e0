(* The paper's running example (Figures 2 and 3), end to end:

   - ZK-1208: an ephemeral node is created on a closing session; Kafka
     consumers keep resolving a dead address ("zombie cluster");
   - the fix adds a guard, and LISA turns the fix into an executable
     contract;
   - one year later a new request path (the learner processor) reaches the
     same creation logic without the guard — the contract flags it before
     it ships.

   Run with: dune exec examples/zookeeper_ephemeral.exe *)

let banner title =
  Fmt.pr "@.=== %s ===@." title

let () =
  let case =
    match Corpus.Registry.find Corpus.Registry.builtin "zk-ephemeral" with
    | Some c -> c
    | None -> failwith "corpus case missing"
  in

  banner "1. the incident (ZK-1208)";
  let ticket = Corpus.Case.original_ticket case in
  Fmt.pr "%s@.%s@." (Oracle.Ticket.summary ticket) ticket.Oracle.Ticket.description;

  banner "2. the fix, as a diff";
  print_string (Oracle.Ticket.diff ticket);

  banner "3. inference: the fix becomes a low-level semantic";
  let outcome = Lisa.Pipeline.learn ticket in
  List.iter
    (fun (l : Lisa.Pipeline.stage_log) ->
      Fmt.pr "[%-11s] %s@." l.Lisa.Pipeline.stage l.Lisa.Pipeline.detail)
    outcome.Lisa.Pipeline.log;
  let book =
    Semantics.Rulebook.of_rules ~system:"zookeeper" outcome.Lisa.Pipeline.accepted
  in
  print_endline (Semantics.Rulebook.to_string book);

  banner "4. a year later: the learner path lands (ZK-1496's bug)";
  let regressed = Corpus.Case.program_at case 2 in
  Fmt.pr "the old regression tests still pass:@.";
  List.iter
    (fun t ->
      let ok =
        match Minilang.Interp.run_test regressed t with
        | Minilang.Interp.Passed -> "PASS"
        | Minilang.Interp.Failed _ | Minilang.Interp.Errored _ -> "FAIL"
      in
      Fmt.pr "  %s %s@." ok t)
    ticket.Oracle.Ticket.regression_tests;

  banner "5. but the contract does not";
  let reports = Lisa.Pipeline.enforce regressed book in
  List.iter
    (fun (r : Engine.Checker.rule_report) ->
      Fmt.pr "%s@." (Engine.Checker.report_summary r);
      List.iter
        (fun (t : Engine.Checker.trace_verdict) ->
          match t.Engine.Checker.tv_result with
          | Smt.Solver.Violation m ->
              Fmt.pr "  VIOLATION in %s@.    trace condition: %s@.    admits: %s@."
                t.Engine.Checker.tv_method
                (Smt.Formula.to_string t.Engine.Checker.tv_pc)
                (Smt.Solver.model_to_string m)
          | Smt.Solver.Verified | Smt.Solver.Undecided _ -> ())
        r.Engine.Checker.rep_violations)
    reports;

  banner "6. what production would have seen (Figure 2)";
  print_endline (Lisa.Experiments.Zk_ephemeral.zombie_scenario ())
