(** The end-to-end LISA workflow (Figure 5).

    {v
      failure ticket --> LLM inference --> translation --> cross-check
           |                                                  |
           v                                                  v
      rulebook  <---------------------- grounded rules  (discard hallucinated)
           |
           v
      enforcement on new versions (concolic + SMT)  --> findings
    v}

    The *cross-check* stage implements the mitigation sketched in §5 for
    LLM unreliability: a mined rule is validated against the patched
    version itself — if enforcing it there yields violations, or the rule
    never verifies any trace (no grounding in actual behaviour), it is
    rejected before entering the rulebook. *)

type stage_log = { stage : string; detail : string }

type outcome = {
  ticket : Oracle.Ticket.t;
  prompt : string;
  inference : Oracle.Inference.inferred;
  accepted : Semantics.Rule.t list;
  rejected : (Semantics.Rule.t * string) list;  (** rule, reason *)
  log : stage_log list;
}

type config = {
  checker : Engine.Checker.config;
  generalize : bool;  (** apply rule generalization before cross-checking *)
  oracle : Oracle.Inference.client;
      (** the inference backend; E9 passes a noisy one *)
  cross_check : bool;  (** validate rules against the patched version *)
}

let default_config =
  {
    checker = Engine.Checker.default_config;
    generalize = true;
    oracle = Oracle.Inference.default_client;
    cross_check = true;
  }

(* Ground a rule against the patched version of its origin ticket. *)
let cross_check_rule (config : config) (patched : Minilang.Ast.program)
    (rule : Semantics.Rule.t) : (Semantics.Rule.t, string) result =
  match rule.Semantics.Rule.body with
  | Semantics.Rule.Lock_discipline _ ->
      (* a lock rule is grounded iff the patched version is clean under it *)
      let r = Engine.Checker.check_rule ~config:config.checker patched rule in
      if r.Engine.Checker.rep_lock_findings = [] then Ok rule
      else Error "patched version still violates the lock rule"
  | Semantics.Rule.State_guard { condition; _ } -> (
      (* an ill-sorted condition would verify every trace: its
         complement check is unsatisfiable whatever the program does *)
      match Smt.Theory.ill_sorted condition with
      | a :: _ ->
          Error
            (Fmt.str "ill-sorted condition: %s orders a non-integer constant"
               (Smt.Formula.atom_to_string a))
      | [] ->
          let r = Engine.Checker.check_rule ~config:config.checker patched rule in
          if r.Engine.Checker.rep_targets = 0 then
            Error "target statement does not exist in the patched version"
          else if r.Engine.Checker.rep_violations <> [] then
            Error "patched version violates the rule: inference is not grounded"
          else if not r.Engine.Checker.rep_sanity_ok then
            Error
              "no trace verifies the rule: the fixed path must act as sanity check"
          else Ok rule)

(* Ask the oracle, the one external and unreliable service: a client
   that raises is retried twice (one [Job_retry] event per retry), and a
   third failure answers a degraded, rule-less inference, so learning
   continues with the remaining tickets. *)
let with_oracle_retries (client : Oracle.Inference.client)
    (ticket : Oracle.Ticket.t) : Oracle.Inference.inferred =
  let job = "infer:" ^ ticket.Oracle.Ticket.ticket_id in
  let rec attempt n =
    match client ticket with
    | v -> v
    | exception e ->
        let reason = Printexc.to_string e in
        if n >= 2 then
          Oracle.Inference.degraded_inference ticket
            (Fmt.str "oracle unavailable after %d attempt(s): %s" (n + 1) reason)
        else begin
          Resilience.Events.emit
            (Resilience.Events.Job_retry { job; attempt = n + 1; reason });
          attempt (n + 1)
        end
  in
  attempt 0

(** Learn rules from one ticket: inference, optional generalization, and
    cross-checking against the ticket's own patched version. *)
let learn ?(config = default_config) (ticket : Oracle.Ticket.t) : outcome =
  Log.info "learning from ticket %s" ticket.Oracle.Ticket.ticket_id;
  let log = ref [] in
  let push stage detail =
    Log.debug "[%s] %s" stage detail;
    log := { stage; detail } :: !log
  in
  let prompt = Oracle.Prompt.build ticket in
  push "collect"
    (Fmt.str "ticket %s: %d-token bundle (description + diff + patched source)"
       ticket.Oracle.Ticket.ticket_id
       (Oracle.Prompt.token_estimate prompt));
  let inference = with_oracle_retries config.oracle ticket in
  push "infer"
    (Fmt.str "high-level: %s; %d candidate low-level semantics"
       inference.Oracle.Inference.inf_high_level
       (List.length inference.Oracle.Inference.inf_rules));
  let rules =
    if config.generalize then
      List.map Semantics.Rule.generalize inference.Oracle.Inference.inf_rules
    else inference.Oracle.Inference.inf_rules
  in
  push "translate"
    (String.concat "; " (List.map Semantics.Rule.to_string rules));
  let accepted, rejected =
    if not config.cross_check then (rules, [])
    else begin
      let patched = ticket.Oracle.Ticket.patched_program in
      List.fold_left
        (fun (acc, rej) rule ->
          match cross_check_rule config patched rule with
          | Ok r -> (acc @ [ r ], rej)
          | Error reason -> (acc, rej @ [ (rule, reason) ]))
        ([], []) rules
    end
  in
  push "cross-check"
    (Fmt.str "%d accepted, %d rejected" (List.length accepted) (List.length rejected));
  { ticket; prompt; inference; accepted; rejected; log = List.rev !log }

(** Learn from a sequence of tickets into a rulebook. *)
let learn_all ?(config = default_config) ~(system : string)
    (tickets : Oracle.Ticket.t list) : Semantics.Rulebook.t * outcome list =
  let book = Semantics.Rulebook.create ~system in
  let outcomes =
    List.map
      (fun t ->
        let o = learn ~config t in
        Semantics.Rulebook.add_all book o.accepted;
        o)
      tickets
  in
  (book, outcomes)

let log_reports (reports : Engine.Checker.rule_report list) =
  List.iter
    (fun (r : Engine.Checker.rule_report) ->
      if Engine.Checker.has_violations r then Log.warn "%s" (Engine.Checker.report_summary r)
      else Log.debug "%s" (Engine.Checker.report_summary r))
    reports;
  reports

(** Enforce a rulebook against a program version; the central entry point
    for CI and for the experiments. *)
let enforce ?(config = default_config) (p : Minilang.Ast.program)
    (book : Semantics.Rulebook.t) : Engine.Checker.rule_report list =
  Log.info "enforcing %d rule(s) of the %s rulebook" (Semantics.Rulebook.size book)
    book.Semantics.Rulebook.system;
  log_reports (Engine.Checker.check_book ~config:config.checker p book)

(** Enforce a rulebook through an enforcement engine: the same
    prepare/execute body and logging as {!enforce}, with the engine's
    worker pool, verdict cache and statistics
    ({!Engine.Scheduler.enforce}). *)
let enforce_with (engine : Engine.Scheduler.t) (p : Minilang.Ast.program)
    (book : Semantics.Rulebook.t) : Engine.Checker.rule_report list =
  Log.info "engine-enforcing %d rule(s) of the %s rulebook"
    (Semantics.Rulebook.size book) book.Semantics.Rulebook.system;
  log_reports (Engine.Scheduler.enforce engine p book)

let findings = Engine.Scheduler.findings
