(** CI/CD enforcement: the "executable contract" vision of the paper.

    Replays a case's version history through a gated pipeline: every
    proposed version must pass its test suite *and* the accumulated
    rulebook.  When a fix lands, its ticket is fed through the learning
    pipeline and the accepted rules extend the rulebook — so the next
    commit that re-violates the semantics is blocked before release,
    instead of after the next production incident.

    Enforcement goes through the {!Engine} scheduler: one engine per
    replay, so stage N+1 reuses stage N's clean reports for every rule
    whose region the commit left untouched, and the SMT verdict cache
    spans the whole history. *)

type event =
  | Shipped of { stage : int; tests : int }
  | Blocked of { stage : int; findings : Engine.Checker.rule_report list }
  | Learned of { stage : int; ticket_id : string; accepted : int; rejected : int }
  | Test_failure of { stage : int; failures : string list }
  | Degraded of { stage : int; rules : string list }
      (** enforcement lost evidence for these rules (budgets, breakers,
          quarantine): the stage's verdict is best-effort, not final *)
  | Demoted of { stage : int; rules : string list }
      (** witness-replay triage ranked every finding of these rules
          Likely-FP: they are advisory and did not block the stage *)

type run = {
  case_id : string;
  events : event list;
  book : Semantics.Rulebook.t;
  stats : Engine.Stats.t;  (** the replay engine's counters *)
}

let run_tests (p : Minilang.Ast.program) : string list =
  List.filter_map
    (fun name ->
      match Minilang.Interp.run_test p name with
      | Minilang.Interp.Passed -> None
      | Minilang.Interp.Failed m | Minilang.Interp.Errored m -> Some (name ^ ": " ^ m))
    (Minilang.Interp.test_names p)

(** Replay one case's history through the gate.

    [jobs] is the engine's worker-pool width (1 = serial, deterministic
    bit-for-bit).  Rules exist only after the first incident is learned,
    so the rulebook gate arms itself as the history unfolds.

    [triage] (default [None] — the gate behaves byte-identically to the
    pre-triage pipeline) runs witness-replay triage over each stage's
    findings: only rules with a finding that survives triage block the
    stage; all-Likely-FP rules are demoted to an advisory
    {!Demoted} event. *)
let replay ?(config = Pipeline.default_config) ?(jobs = 1)
    ?(triage : Triage.config option) (c : Corpus.Case.t) : run =
  let engine =
    Engine.Scheduler.create
      ~config:
        {
          Engine.Scheduler.default_config with
          Engine.Scheduler.jobs;
          checker = config.Pipeline.checker;
        }
      ()
  in
  let book = Semantics.Rulebook.create ~system:c.Corpus.Case.system in
  let events = ref [] in
  let push e = events := e :: !events in
  for stage = 0 to c.Corpus.Case.n_stages - 1 do
    let p = Corpus.Case.program_at c stage in
    (* 1. the classic gate: the test suite *)
    let failures = run_tests p in
    if failures <> [] then push (Test_failure { stage; failures })
    else begin
      (* 2. the LISA gate: the accumulated rulebook, via the engine *)
      let reports = Pipeline.enforce_with engine p book in
      let findings = Pipeline.findings reports in
      (match Engine.Scheduler.degraded_ids reports with
      | [] -> ()
      | rules -> push (Degraded { stage; rules }));
      let blocking_findings =
        match triage with
        | None -> findings
        | Some tcfg ->
            let ts = Triage.triage_reports ~config:tcfg p findings in
            (match Triage.demoted_ids ts with
            | [] -> ()
            | rules -> push (Demoted { stage; rules }));
            List.filter_map
              (fun t ->
                if Triage.blocking t then Some t.Triage.t_report else None)
              ts
      in
      if blocking_findings <> [] then
        push (Blocked { stage; findings = blocking_findings })
      else
        push (Shipped { stage; tests = List.length (Minilang.Interp.test_names p) })
    end;
    (* 3. if a fix landed at this stage, learn from its ticket *)
    match Corpus.Case.ticket_at c stage with
    | None -> ()
    | Some ticket ->
        let outcome = Pipeline.learn ~config ticket in
        Semantics.Rulebook.add_all book outcome.Pipeline.accepted;
        push
          (Learned
             {
               stage;
               ticket_id = ticket.Oracle.Ticket.ticket_id;
               accepted = List.length outcome.Pipeline.accepted;
               rejected = List.length outcome.Pipeline.rejected;
             })
  done;
  {
    case_id = c.Corpus.Case.case_id;
    events = List.rev !events;
    book;
    stats = Engine.Scheduler.stats engine;
  }

(** Gate every case of a registry, in registry order (one engine per
    replay, as in production CI where each repo gets its own gate). *)
let replay_all ?config ?jobs ?triage ?(registry = Corpus.Registry.builtin) () :
    run list =
  List.map (replay ?config ?jobs ?triage) registry.Corpus.Registry.cases

let blocked_stages (r : run) : int list =
  List.filter_map (function Blocked { stage; _ } -> Some stage | _ -> None) r.events

(** Stages whose enforcement was degraded (lost evidence). *)
let degraded_stages (r : run) : int list =
  List.filter_map (function Degraded { stage; _ } -> Some stage | _ -> None) r.events

let event_to_string = function
  | Shipped { stage; tests } -> Fmt.str "v%d SHIPPED (%d tests green)" stage tests
  | Blocked { stage; findings } ->
      Fmt.str "v%d BLOCKED by rulebook: %s" stage
        (String.concat "; "
           (List.map
              (fun (r : Engine.Checker.rule_report) ->
                r.Engine.Checker.rep_rule.Semantics.Rule.rule_id)
              findings))
  | Learned { stage; ticket_id; accepted; rejected } ->
      Fmt.str "v%d learned %s: %d rule(s) accepted, %d rejected" stage ticket_id
        accepted rejected
  | Test_failure { stage; failures } ->
      Fmt.str "v%d test failures: %s" stage (String.concat "; " failures)
  | Degraded { stage; rules } ->
      Fmt.str "v%d DEGRADED enforcement (evidence lost): %s" stage
        (String.concat "; " rules)
  | Demoted { stage; rules } ->
      Fmt.str "v%d demoted to advisory (triage: all findings Likely-FP): %s"
        stage (String.concat "; " rules)

let run_to_string (r : run) : string =
  Fmt.str "=== CI history for %s ===\n%s\n[%s]" r.case_id
    (String.concat "\n" (List.map event_to_string r.events))
    (Engine.Stats.to_string r.stats)
