(** Witness-replay triage: self-validating verdict tiers over checker
    findings (the Hitchhiker's-Guide second pass).

    For each violating trace the checker reports, triage turns the SMT
    model of [pc /\ !checker] into concrete values, replays the trace's
    driving test under the concolic engine with those values as its
    symbolic inputs' starting state, and checks whether the condition
    fails on the program's own state at the target.  A hallucination signal (the rule
    contradicts concretely-observed passing state and has no verified
    trace) ranks first.  Tiers rank findings — triage never deletes a
    report — so disabling it leaves all downstream output
    byte-identical. *)

(** Verdict tiers, strongest first. *)
type tier =
  | Witnessed
      (** the replayed test reproduces the violation, and the rule is
          consistent with observed passing behaviour *)
  | Consistent
      (** a model exists but the replay did not reproduce it: plausible,
          unproven *)
  | Likely_fp
      (** the rule condemns states the system's own green tests produce
          and has no verified trace *)

val tier_to_string : tier -> string
(** ["witnessed"] / ["consistent"] / ["likely-fp"] — the wire spelling
    used by the serve protocol and reports. *)

val tier_of_string : string -> tier option

type config = { enabled : bool }

val default_config : config

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

(** {2 The witness (exposed for property tests)} *)

(** One concrete valuation from a [Sat] model of the formula: the
    model's literals valued by {!Smt.Theory.valuation}, kept only if the
    valuation satisfies [Smt.Formula.simplify f].  [None] when the theory
    finds no valuation or the check fails. *)
val witness :
  Smt.Formula.t ->
  (Smt.Formula.atom * bool) list ->
  (string * Smt.Formula.value) list option

(** {2 Triage} *)

(** Triage one rule report against the program version it was checked
    on.  Emits a [triage.witness] span per finding and bumps the
    [triage.tier.*] metrics. *)
val triage_report :
  ?config:config -> Minilang.Ast.program -> Engine.Checker.rule_report ->
  triaged

(** Triage a batch and emit the [triage.tier.*] trace counter events. *)
val triage_reports :
  ?config:config ->
  Minilang.Ast.program ->
  Engine.Checker.rule_report list ->
  triaged list

(** The report-level tier: the best tier among the rule's findings
    ([None] for a clean report). *)
val rule_tier : triaged -> tier option

(** [(rule id, tier)] for every rule with findings, in input order: the
    tier column of scan rows and serve summaries. *)
val rule_tiers : triaged list -> (string * string) list

(** A rule blocks the gate iff at least one finding survived triage
    (Witnessed or Consistent). *)
val blocking : triaged -> bool

(** Rule ids with findings, all of which triage ranked Likely-FP. *)
val demoted_ids : triaged list -> string list

val finding_to_string : finding -> string
