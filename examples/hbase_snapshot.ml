(* Reproduction of the paper's Bug #1 (§4, HBASE-29296):

   In HBase it is crucial to prevent expired snapshots from being used.
   HBASE-27671 and HBASE-28704 added expiration checks to the restore and
   export paths, yet "users still observed expired snapshots returning to
   clients successfully without generating any alarms."  Learning the TTL
   contract from the closed tickets and scanning the latest release finds
   the copy-table path with no check — the fix the authors proposed and
   HBase developers accepted.

   Run with: dune exec examples/hbase_snapshot.exe *)

let () =
  let case =
    match Corpus.Registry.find Corpus.Registry.builtin "hbase-snapshot-ttl" with
    | Some c -> c
    | None -> failwith "corpus case missing"
  in

  Fmt.pr "known history of the snapshot-TTL semantic:@.";
  List.iter
    (fun t -> Fmt.pr "  %s@." (Oracle.Ticket.summary t))
    (Corpus.Case.tickets case);

  (* learn from every ticket closed before the "latest" release *)
  let closed_tickets =
    List.filter
      (fun (t : Oracle.Ticket.t) -> t.Oracle.Ticket.ticket_id <> "HBASE-29296")
      (Corpus.Case.tickets case)
  in
  let book, outcomes = Lisa.Pipeline.learn_all ~system:"hbase" closed_tickets in
  Fmt.pr "@.rulebook learned from the closed tickets:@.%s@."
    (Semantics.Rulebook.to_string book);
  List.iter
    (fun (o : Lisa.Pipeline.outcome) ->
      List.iter
        (fun (r, why) ->
          Fmt.pr "  (rejected %s: %s)@." r.Semantics.Rule.rule_id why)
        o.Lisa.Pipeline.rejected)
    outcomes;

  (* scan the latest release (stage 4 = HBase @5dafa9e in the paper) *)
  let latest = Corpus.Case.program_at case case.Corpus.Case.latest_stage in
  Fmt.pr "@.scanning the latest release...@.";
  let reports = Lisa.Pipeline.enforce latest book in
  let found = ref false in
  List.iter
    (fun (r : Engine.Checker.rule_report) ->
      List.iter
        (fun (t : Engine.Checker.trace_verdict) ->
          match t.Engine.Checker.tv_result with
          | Smt.Solver.Violation m ->
              found := true;
              Fmt.pr
                "NEW BUG: %s serves snapshots without the expiration check@.\
                \  driven by existing test: %s@.\
                \  a state admitted by the path: %s@."
                t.Engine.Checker.tv_method t.Engine.Checker.tv_entry
                (Smt.Solver.model_to_string m)
          | Smt.Solver.Verified | Smt.Solver.Undecided _ -> ())
        r.Engine.Checker.rep_violations)
    reports;
  if !found then begin
    Fmt.pr
      "@.-> this is HBASE-29296: \"Missing critical snapshot expiration checks\".@.";
    (* the paper proposed the fix and HBase developers accepted it; the
       synthesizer produces and verifies it mechanically *)
    let cf = Lisa.Fix.fix_unknown_bug "hbase-snapshot-ttl" in
    Fmt.pr "@.%s@." (Lisa.Fix.print_case_fixes cf);
    match cf.Lisa.Fix.cf_proposals with
    | ((p : Lisa.Fix.proposal), _) :: _ ->
        Fmt.pr "the diff a maintainer reviews:@.%s@." p.Lisa.Fix.fp_diff
    | [] -> ()
  end
  else Fmt.pr "no violation found (unexpected)@."
