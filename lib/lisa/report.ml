(** Human-facing reports: render enforcement results the way a CI job
    would surface them to developers — one Markdown section per rule, a
    verdict table, counterexamples, and the uncovered-path list that asks
    for a developer verdict (§3.2's final step). *)

let h2 title = "## " ^ title

let bullet s = "- " ^ s

let code s = "`" ^ s ^ "`"

let render_trace (t : Engine.Checker.trace_verdict) : string =
  match t.Engine.Checker.tv_result with
  | Smt.Solver.Verified ->
      bullet
        (Fmt.str "VERIFIED — %s (driven by %s); path condition %s"
           (code t.Engine.Checker.tv_method) (code t.Engine.Checker.tv_entry)
           (code (Smt.Formula.to_string t.Engine.Checker.tv_pc)))
  | Smt.Solver.Violation model ->
      bullet
        (Fmt.str
           "**VIOLATION** — %s (driven by %s); the path admits %s"
           (code t.Engine.Checker.tv_method) (code t.Engine.Checker.tv_entry)
           (code (Smt.Solver.model_to_string model)))
  | Smt.Solver.Undecided reason ->
      bullet
        (Fmt.str "UNDECIDED — %s (driven by %s): %s"
           (code t.Engine.Checker.tv_method) (code t.Engine.Checker.tv_entry) reason)

let render_lock_finding (f : Engine.Checker.lock_finding) : string =
  bullet
    (Fmt.str "**LOCK VIOLATION** — %s performs %s while holding a monitor (%s, stmt %d)"
       (code f.Engine.Checker.lf_method) (code f.Engine.Checker.lf_op)
       (if f.Engine.Checker.lf_static then "static" else "dynamic")
       f.Engine.Checker.lf_sid)

(** Markdown section for one rule report. *)
let render_rule_report (r : Engine.Checker.rule_report) : string =
  let rule = r.Engine.Checker.rep_rule in
  let lines =
    [
      h2 (Fmt.str "Rule %s" rule.Semantics.Rule.rule_id);
      "";
      Fmt.str "> %s" rule.Semantics.Rule.description;
      Fmt.str "> protects: %s (learned from %s)" rule.Semantics.Rule.high_level
        rule.Semantics.Rule.origin;
      "";
      bullet (Fmt.str "contract: %s" (code (Semantics.Rule.to_string rule)));
      bullet
        (Fmt.str "targets: %d, static paths: %d, tests run: %d" r.Engine.Checker.rep_targets
           r.Engine.Checker.rep_static_paths
           (List.length r.Engine.Checker.rep_tests_run));
      bullet
        (Fmt.str "traces: %d (%d verified, %d violations); sanity %s"
           (List.length r.Engine.Checker.rep_traces)
           (List.length r.Engine.Checker.rep_verified)
           (List.length r.Engine.Checker.rep_violations)
           (if r.Engine.Checker.rep_sanity_ok then "ok" else "**failed**"));
    ]
  in
  let traces = List.map render_trace r.Engine.Checker.rep_traces in
  let locks = List.map render_lock_finding r.Engine.Checker.rep_lock_findings in
  let uncovered =
    match r.Engine.Checker.rep_uncovered_paths with
    | [] -> []
    | paths ->
        ("" :: bullet "uncovered execution paths (developer verdict needed):"
        :: List.map (fun p -> "  " ^ bullet (code p)) paths)
  in
  (* absent on a healthy run, so clean reports render byte-identically
     to the pre-resilience pipeline *)
  let degraded =
    match r.Engine.Checker.rep_degraded with
    | [] -> []
    | reasons ->
        ("" :: bullet "**DEGRADED** — evidence lost, verdict is best-effort:"
        :: List.map (fun why -> "  " ^ bullet why) reasons)
  in
  String.concat "\n" (lines @ [ "" ] @ traces @ locks @ uncovered @ degraded)

(** Full Markdown report for an enforcement run. *)
let render ?(title = "LISA enforcement report") (reports : Engine.Checker.rule_report list)
    : string =
  let violating = List.filter Engine.Checker.has_violations reports in
  let degraded = List.filter Engine.Checker.is_degraded reports in
  let verdict =
    if violating = [] && degraded <> [] then
      Fmt.str
        "**PASS (degraded)** — %d rule(s) checked, no violations, but %d \
         report(s) lost evidence."
        (List.length reports) (List.length degraded)
    else if violating = [] then
      Fmt.str "**PASS** — %d rule(s) checked, no violations." (List.length reports)
    else
      Fmt.str "**BLOCK** — %d of %d rule(s) violated: %s." (List.length violating)
        (List.length reports)
        (String.concat ", "
           (List.map
              (fun (r : Engine.Checker.rule_report) ->
                code r.Engine.Checker.rep_rule.Semantics.Rule.rule_id)
              violating))
  in
  String.concat "\n\n"
    (("# " ^ title) :: verdict :: List.map render_rule_report reports)

(* ------------------------------------------------------------------ *)
(* Triaged rendering (witness-replay tiers)                            *)
(* ------------------------------------------------------------------ *)

let render_triage_finding (f : Triage.finding) : string =
  bullet
    (Fmt.str "triage **%s** — %s (stmt %d): %s"
       (String.uppercase_ascii (Triage.tier_to_string f.Triage.f_tier))
       (code f.Triage.f_method) f.Triage.f_target_sid f.Triage.f_reason)

(** Markdown section for one triaged rule report: the plain section plus
    one tier bullet per finding. *)
let render_triaged_report (t : Triage.triaged) : string =
  let base = render_rule_report t.Triage.t_report in
  match t.Triage.t_findings with
  | [] -> base
  | fs ->
      String.concat "\n"
        (base :: "" :: List.map render_triage_finding fs)

(** Full Markdown report for a triaged enforcement run.  The verdict
    line counts only rules with findings that survived triage: a rule
    whose every finding is Likely-FP is demoted to advisory and cannot
    BLOCK on its own. *)
let render_triaged ?(title = "LISA enforcement report")
    (ts : Triage.triaged list) : string =
  let reports = List.map (fun t -> t.Triage.t_report) ts in
  let blocking = List.filter Triage.blocking ts in
  let demoted = Triage.demoted_ids ts in
  let degraded = List.filter Engine.Checker.is_degraded reports in
  let verdict =
    if blocking = [] && degraded <> [] then
      Fmt.str
        "**PASS (degraded)** — %d rule(s) checked, no blocking findings, \
         but %d report(s) lost evidence."
        (List.length reports) (List.length degraded)
    else if blocking = [] then
      Fmt.str "**PASS** — %d rule(s) checked, no blocking findings."
        (List.length reports)
    else
      Fmt.str "**BLOCK** — %d of %d rule(s) with witnessed or consistent \
               findings: %s."
        (List.length blocking) (List.length reports)
        (String.concat ", "
           (List.map
              (fun t ->
                code
                  t.Triage.t_report.Engine.Checker.rep_rule.Semantics.Rule.rule_id)
              blocking))
  in
  let demotion_note =
    if demoted = [] then []
    else
      [
        Fmt.str
          "_%d rule(s) demoted to advisory (every finding Likely-FP): %s_"
          (List.length demoted)
          (String.concat ", " (List.map code demoted));
      ]
  in
  String.concat "\n\n"
    ((("# " ^ title) :: verdict :: demotion_note)
    @ List.map render_triaged_report ts)
