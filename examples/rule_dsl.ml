(* §5 open question (ii): "can we provide a better interface for developers
   to encode low-level semantics?"

   Instead of mining rules from tickets, a developer writes them directly
   in the structured rule language and enforces them like any mined rule.

   Run with: dune exec examples/rule_dsl.exe *)

let rules_text =
  {|# Rules a ZooKeeper developer might write by hand.

rule zk.ephemeral-closing:
  because "every ephemeral node dies with its session"
  when calling createEphemeralNode
  require Session != null && Session.closing == false

rule zk.no-io-under-locks:
  because "writers must never stall behind a monitor"
  forbid blocking under lock
|}

let () =
  print_endline "developer-authored rules:";
  print_endline rules_text;

  (* 1. parse the DSL *)
  let rules = Semantics.Dsl.parse rules_text in
  List.iter (fun r -> print_endline ("parsed: " ^ Semantics.Rule.to_string r)) rules;

  (* 2. round-trip check: printing and re-parsing is stable *)
  let printed = Semantics.Dsl.print_rules rules in
  assert (Semantics.Dsl.parse printed = rules);
  print_endline "\n(the DSL round-trips: print . parse = id)\n";

  (* 3. enforce them on the regressed ZooKeeper versions from the corpus *)
  let enforce case_id stage =
    let c =
      match Corpus.Registry.find Corpus.Registry.builtin case_id with
      | Some c -> c
      | None -> failwith "corpus case missing"
    in
    let program = Corpus.Case.program_at c stage in
    Fmt.pr "--- %s stage %d ---@." case_id stage;
    List.iter
      (fun rule ->
        let report = Engine.Checker.check_rule program rule in
        Fmt.pr "%s@." (Engine.Checker.report_summary report);
        List.iter
          (fun (t : Engine.Checker.trace_verdict) ->
            match t.Engine.Checker.tv_result with
            | Smt.Solver.Violation m ->
                Fmt.pr "  VIOLATION in %s: %s@." t.Engine.Checker.tv_method
                  (Smt.Solver.model_to_string m)
            | Smt.Solver.Verified | Smt.Solver.Undecided _ -> ())
          report.Engine.Checker.rep_violations;
        List.iter
          (fun (f : Engine.Checker.lock_finding) ->
            Fmt.pr "  LOCK VIOLATION: %s performs %s under a monitor@."
              f.Engine.Checker.lf_method f.Engine.Checker.lf_op)
          report.Engine.Checker.rep_lock_findings)
      rules
  in
  (* the ephemeral rule catches the ZK-1496 path; the lock rule catches the
     ZK-3531 ACL-cache serialization *)
  enforce "zk-ephemeral" 2;
  enforce "zk-serialize-lock" 2
