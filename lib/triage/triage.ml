(** Witness-replay triage: self-validating verdicts over checker findings.

    The checker reports every violating path, but the oracle that wrote
    the rule may have hallucinated its semantics (the noise model of
    {!Oracle.Inference} makes this concrete).  Following the
    Hitchhiker's-Guide recipe, each finding is put through a second,
    self-validation pass built on the same evidence the checker used —
    the system's own test, run under the concolic engine:

    1. {!Smt.Theory.valuation} turns the checker's [Sat] model of
       [pc /\ !checker] into concrete values, kept only if they satisfy
       the formula ({!witness});
    2. the finding's driving test is replayed once through
       {!Symexec.Concolic.run} with those values as its symbolic
       inputs' starting state (scalar parameters and [Class.field]
       paths, written when the finding's method is entered), and the
       checker condition is re-evaluated on the real state captured at
       each arrival at the target statement;
    3. the hallucination signal decides first: a rule that condemns a
       state the system's own passing tests concretely produced, with no
       verified trace to its name (the paper's §3.2 sanity requirement).

    The fusion yields a tier per finding: {!Likely_fp} when the
    hallucination signal fires, else {!Witnessed} when the replay
    reproduces the violation, else {!Consistent} (plausible, unproven).
    Tiers only ever {e rank} findings — triage never deletes a report —
    so a disabled triage pass leaves every downstream byte identical. *)

type tier = Witnessed | Consistent | Likely_fp

let tier_to_string = function
  | Witnessed -> "witnessed"
  | Consistent -> "consistent"
  | Likely_fp -> "likely-fp"

let tier_of_string = function
  | "witnessed" -> Some Witnessed
  | "consistent" -> Some Consistent
  | "likely-fp" -> Some Likely_fp
  | _ -> None

(* findings per tier; counter-friendly spelling (dots and dashes don't
   mix in metric names) *)
let tier_counters =
  let declare name =
    Telemetry.Metrics.counter ("triage.tier." ^ name)
      ~doc:("findings triaged as " ^ name)
  in
  let witnessed = declare "witnessed" in
  let consistent = declare "consistent" in
  let likely_fp = declare "likely_fp" in
  [ (Witnessed, witnessed); (Consistent, consistent); (Likely_fp, likely_fp) ]

type config = { enabled : bool }

let default_config = { enabled = true }

type finding = {
  f_rule_id : string;
  f_method : string;
  f_entry : string;  (** driving test; [""] for static lock findings *)
  f_target_sid : int;
  f_tier : tier;
  f_reason : string;  (** deterministic evidence summary *)
}

type triaged = {
  t_report : Engine.Checker.rule_report;
  t_findings : finding list;
      (** one per violation trace and lock finding; [] when triage is
          disabled or the report is clean *)
}

(* ------------------------------------------------------------------ *)
(* Witness and replay                                                  *)
(* ------------------------------------------------------------------ *)

(** One concrete valuation from a [Sat] model of [f]: the theory's
    valuation of the model's literals, kept only if it satisfies the
    simplified [f]. *)
let witness (f : Smt.Formula.t) (model : (Smt.Formula.atom * bool) list) :
    (string * Smt.Formula.value) list option =
  match
    Smt.Theory.valuation
      (List.map (fun (a, sign) -> Smt.Theory.lit sign a) model)
  with
  | Some v when Smt.Formula.eval v (Smt.Formula.simplify f) = Some true ->
      Some v
  | Some _ | None -> None

let env_to_string (env : (string * Smt.Formula.value) list) : string =
  String.concat ", "
    (List.map
       (fun (v, fv) ->
         Fmt.str "%s=%s"
           v
           (match fv with
           | Smt.Formula.V_int n -> string_of_int n
           | Smt.Formula.V_bool b -> string_of_bool b
           | Smt.Formula.V_str s -> s
           | Smt.Formula.V_null -> "null"))
       env)

(* Replay the finding's driving test with the witness as its symbolic
   inputs' starting values: reproduced when an arrival at the target, in
   the finding's method, reads a state on which the condition is
   false. *)
let replay (p : Minilang.Ast.program) (tv : Engine.Checker.trace_verdict)
    ~(condition : Smt.Formula.t) (inputs : (string * Smt.Formula.value) list)
    : ((string * Smt.Formula.value) list, string) result =
  let run =
    Symexec.Concolic.run
      ~config:
        {
          Symexec.Concolic.default_config with
          Symexec.Concolic.targets = [ tv.Engine.Checker.tv_target_sid ];
          capture_vars = Smt.Formula.variables condition;
          inputs;
        }
      p tv.Engine.Checker.tv_entry
  in
  let arrivals =
    List.filter
      (fun (h : Symexec.Concolic.hit) ->
        h.Symexec.Concolic.h_method = tv.Engine.Checker.tv_method)
      run.Symexec.Concolic.r_hits
  in
  let state (h : Symexec.Concolic.hit) = h.Symexec.Concolic.h_state in
  match
    List.find_opt
      (fun h -> Smt.Formula.eval (state h) condition = Some false)
      arrivals
  with
  | Some h -> Ok (state h)
  | None ->
      Error
        (if arrivals <> [] then
           if List.exists (fun h -> Smt.Formula.eval (state h) condition = None) arrivals
           then "checker unevaluable at a target arrival"
           else "checker holds at every target arrival"
         else
           match (run.Symexec.Concolic.r_lost, run.Symexec.Concolic.r_outcome) with
           | Some lost, _ ->
               Fmt.str "replay %s before the target statement"
                 (Symexec.Concolic.lost_to_string lost)
           | None, (Minilang.Interp.Failed m | Minilang.Interp.Errored m) ->
               Fmt.str "replay never reached the target statement (%s)" m
           | None, Minilang.Interp.Passed ->
               "replay never reached the target statement")

(* ------------------------------------------------------------------ *)
(* Tier fusion                                                         *)
(* ------------------------------------------------------------------ *)

(* The rule condemns a state the system's own green tests concretely
   produced.  Decided on the captured trace state first (pure
   evaluation); the SMT entailment is the fallback when capture came up
   empty. *)
let contradicts_observed (condition : Smt.Formula.t)
    (tv : Engine.Checker.trace_verdict) : bool =
  match Smt.Formula.eval tv.Engine.Checker.tv_state condition with
  | Some false -> true
  | Some true -> false
  | None ->
      Smt.Solver.entails tv.Engine.Checker.tv_pc
        (Smt.Formula.negate condition)

let triage_trace (p : Minilang.Ast.program)
    (report : Engine.Checker.rule_report)
    (tv : Engine.Checker.trace_verdict) : finding =
  let rule_id = report.Engine.Checker.rep_rule.Semantics.Rule.rule_id in
  Telemetry.Trace.with_span ~cat:"triage"
    ~args:[ ("rule", rule_id); ("method", tv.Engine.Checker.tv_method) ]
    "triage.witness"
  @@ fun () ->
  let condition =
    match Semantics.Rule.condition report.Engine.Checker.rep_rule with
    | Some c -> c
    | None -> Smt.Formula.tru
  in
  let tier, reason =
    if contradicts_observed condition tv && not report.Engine.Checker.rep_sanity_ok
    then
      ( Likely_fp,
        "rule contradicts observed passing state and has no verified trace" )
    else
      let outcome =
        match tv.Engine.Checker.tv_result with
        | Smt.Solver.Violation model -> (
            let f =
              Smt.Formula.conj
                [ tv.Engine.Checker.tv_pc; Smt.Formula.negate condition ]
            in
            match witness f model with
            | Some inputs -> replay p tv ~condition inputs
            | None -> Error "no concrete valuation satisfies the model")
        | Smt.Solver.Verified | Smt.Solver.Undecided _ ->
            Error "no violation model"
      in
      match outcome with
      | Ok env -> (Witnessed, Fmt.str "replay reproduces: %s" (env_to_string env))
      | Error why -> (Consistent, Fmt.str "model exists; replay inconclusive: %s" why)
  in
  {
    f_rule_id = rule_id;
    f_method = tv.Engine.Checker.tv_method;
    f_entry = tv.Engine.Checker.tv_entry;
    f_target_sid = tv.Engine.Checker.tv_target_sid;
    f_tier = tier;
    f_reason = reason;
  }

let triage_lock (report : Engine.Checker.rule_report)
    (lf : Engine.Checker.lock_finding) : finding =
  let rule_id = report.Engine.Checker.rep_rule.Semantics.Rule.rule_id in
  Telemetry.Trace.with_span ~cat:"triage"
    ~args:[ ("rule", rule_id); ("method", lf.Engine.Checker.lf_method) ]
    "triage.witness"
  @@ fun () ->
  let tier, reason =
    if lf.Engine.Checker.lf_static then
      (Consistent, "static lock-scope finding; not dynamically observed")
    else
      ( Witnessed,
        Fmt.str "blocking op %s observed under a held monitor"
          lf.Engine.Checker.lf_op )
  in
  {
    f_rule_id = rule_id;
    f_method = lf.Engine.Checker.lf_method;
    f_entry = "";
    f_target_sid = lf.Engine.Checker.lf_sid;
    f_tier = tier;
    f_reason = reason;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let triage_report ?(config = default_config) (p : Minilang.Ast.program)
    (r : Engine.Checker.rule_report) : triaged =
  if not config.enabled then { t_report = r; t_findings = [] }
  else
    let fs =
      List.map (triage_trace p r) r.Engine.Checker.rep_violations
      @ List.map (triage_lock r) r.Engine.Checker.rep_lock_findings
    in
    List.iter
      (fun f -> Telemetry.Metrics.bump (List.assoc f.f_tier tier_counters))
      fs;
    { t_report = r; t_findings = fs }

let triage_reports ?(config = default_config) (p : Minilang.Ast.program)
    (rs : Engine.Checker.rule_report list) : triaged list =
  let ts = List.map (triage_report ~config p) rs in
  if config.enabled then
    List.iter
      (fun (_, c) -> Telemetry.Metrics.trace_counter ~cat:"triage" c)
      tier_counters;
  ts

(** The report-level tier: the best tier among the rule's findings (a
    single witnessed finding makes the rule actionable), [None] for a
    clean report. *)
let rule_tier (t : triaged) : tier option =
  if t.t_findings = [] then None
  else if List.exists (fun f -> f.f_tier = Witnessed) t.t_findings then
    Some Witnessed
  else if List.exists (fun f -> f.f_tier = Consistent) t.t_findings then
    Some Consistent
  else Some Likely_fp

(** [(rule id, tier)] per triaged rule with findings, in input order. *)
let rule_tiers (ts : triaged list) : (string * string) list =
  List.filter_map
    (fun t ->
      Option.map
        (fun tier ->
          ( t.t_report.Engine.Checker.rep_rule.Semantics.Rule.rule_id,
            tier_to_string tier ))
        (rule_tier t))
    ts

(** A rule blocks the gate iff it has at least one finding that survived
    triage (Witnessed or Consistent); all-Likely-FP rules are demoted to
    advisory. *)
let blocking (t : triaged) : bool =
  List.exists (fun f -> f.f_tier <> Likely_fp) t.t_findings

(** Rule ids with findings, all of which triage ranked Likely-FP. *)
let demoted_ids (ts : triaged list) : string list =
  List.filter_map
    (fun t ->
      if t.t_findings <> [] && not (blocking t) then
        Some t.t_report.Engine.Checker.rep_rule.Semantics.Rule.rule_id
      else None)
    ts

let finding_to_string (f : finding) : string =
  Fmt.str "[%s] %s in %s%s: %s"
    (tier_to_string f.f_tier)
    f.f_rule_id f.f_method
    (if f.f_entry = "" then "" else Fmt.str " (driven by %s)" f.f_entry)
    f.f_reason
