(* Reproduction of the paper's Bug #2 (§4, HDFS-17768):

   If the block report of the observer namenode is delayed, listing results
   can return blocks without any location.  HDFS-13924 and HDFS-16732 added
   location checks to the read and listing paths; LISA finds that the
   batched-listing path of the latest release (e8a64d0 in the paper) still
   lacks the check.

   Run with: dune exec examples/hdfs_observer.exe *)

let () =
  let case =
    match Corpus.Registry.find Corpus.Registry.builtin "hdfs-observer-locations" with
    | Some c -> c
    | None -> failwith "corpus case missing"
  in

  (* demonstrate the failure mode concretely first: a delayed block report
     leaves a block with zero known locations on the observer *)
  let latest = Corpus.Case.program_at case case.Corpus.Case.latest_stage in
  Fmt.pr "concrete failure on the latest release:@.";
  let demo_src =
    case.Corpus.Case.source case.Corpus.Case.latest_stage
    ^ {|
method scenario_empty_locations(): str {
  var nn: ObserverNameNode = makeObserver();
  // the batched listing happily serves block 2, whose report is delayed
  var r: int = nn.getBatchedListing(2);
  return "served block " + toStr(r) + " with 0 locations (client will fail)";
}
|}
  in
  let demo = Minilang.Parser.program ~file:"demo.mj" demo_src in
  (match Minilang.Interp.run_function demo "scenario_empty_locations" [] with
  | st, v -> Fmt.pr "  %s@." (Minilang.Value.to_string ~heap:st.Minilang.Interp.heap v)
  | exception _ -> Fmt.pr "  scenario error@.");

  (* learn the location contract from the two closed tickets *)
  let closed =
    List.filter
      (fun (t : Oracle.Ticket.t) -> t.Oracle.Ticket.ticket_id <> "HDFS-17768")
      (Corpus.Case.tickets case)
  in
  let book, _ = Lisa.Pipeline.learn_all ~system:"hdfs" closed in
  Fmt.pr "@.%s@." (Semantics.Rulebook.to_string book);

  Fmt.pr "@.asserting the contract over all reachable paths of the latest release:@.";
  let reports = Lisa.Pipeline.enforce latest book in
  List.iter
    (fun (r : Engine.Checker.rule_report) ->
      Fmt.pr "%s@." (Engine.Checker.report_summary r);
      List.iter
        (fun (t : Engine.Checker.trace_verdict) ->
          match t.Engine.Checker.tv_result with
          | Smt.Solver.Violation m ->
              Fmt.pr "  NEW BUG in %s: %s@." t.Engine.Checker.tv_method
                (Smt.Solver.model_to_string m)
          | Smt.Solver.Verified | Smt.Solver.Undecided _ -> ())
        r.Engine.Checker.rep_violations)
    reports;
  Fmt.pr
    "@.-> this is HDFS-17768: observer network delay causing empty block location@.\
     \   for getBatchedListing.  Proposed fix approved by HDFS developers.@.";
  Fmt.pr "@.%s@."
    (Lisa.Fix.print_case_fixes (Lisa.Fix.fix_unknown_bug "hdfs-observer-locations"))
