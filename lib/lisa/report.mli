(** Markdown rendering of enforcement results, the way a CI job surfaces
    them: a PASS/BLOCK verdict, one section per rule, verified/violating
    traces with counterexamples, lock findings, and the uncovered-path
    list that asks for a developer verdict. *)

val render_rule_report : Engine.Checker.rule_report -> string

val render : ?title:string -> Engine.Checker.rule_report list -> string

(** Triaged variant of {!render_rule_report}: the plain section plus one
    witness-replay tier bullet per finding. *)
val render_triaged_report : Triage.triaged -> string

(** Triaged variant of {!render}: the BLOCK verdict counts only rules
    with findings that survived triage (Witnessed or Consistent);
    all-Likely-FP rules are listed as demoted to advisory. *)
val render_triaged : ?title:string -> Triage.triaged list -> string
