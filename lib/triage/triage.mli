(** Witness-replay triage: self-validating verdict tiers over checker
    findings (the Hitchhiker's-Guide second pass).

    For each violating trace the checker reports, triage synthesizes
    concrete inputs from the SMT model of [pc /\ !checker] (bounded
    case-split over unconstrained atoms), replays them through the real
    MiniJava interpreter under a fuel budget, and fuses the replay
    outcome with two consistency signals (does the rule contradict
    concretely-observed passing state? does it have any verified trace?)
    into a tier.  Tiers rank findings — triage never deletes a report —
    so disabling it leaves all downstream output byte-identical. *)

(** Verdict tiers, strongest first. *)
type tier =
  | Witnessed
      (** a concrete replay reproduces the violation, and the rule is
          consistent with observed passing behaviour *)
  | Consistent
      (** a model exists but replay was inconclusive or the budget ran
          out: plausible, unproven *)
  | Likely_fp
      (** replay refutes the finding, or the rule condemns states the
          system's own green tests produce and has no verified trace *)

val tier_to_string : tier -> string
(** ["witnessed"] / ["consistent"] / ["likely-fp"] — the wire spelling
    used by the serve protocol and reports. *)

val tier_of_string : string -> tier option

type config = {
  enabled : bool;
  replay_fuel : int;  (** interpreter fuel per replay attempt *)
  max_attempts : int;  (** witness valuations replayed per finding *)
  max_nodes : int;  (** case-split search nodes per finding *)
}

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

(** {2 Witness synthesis (exposed for property tests)} *)

type hint = H_int | H_bool | H_str | H_obj

(** Bounded enumeration of concrete valuations satisfying the formula,
    pruned by three-valued partial evaluation and seeded by the SMT
    model.  Enumeration runs over [Smt.Formula.simplify f], and every
    returned valuation satisfies
    [Smt.Formula.eval valuation (simplify f) = Some true]; the flag is
    [true] iff the whole candidate space was explored within
    [max_nodes] / [max_attempts]. *)
val synthesize :
  ?model:(Smt.Formula.atom * bool) list ->
  ?hints:(string -> hint option) ->
  max_nodes:int ->
  max_attempts:int ->
  Smt.Formula.t ->
  (string * Smt.Formula.value) list list * bool

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

(** A rule blocks the gate iff at least one finding survived triage
    (Witnessed or Consistent). *)
val blocking : triaged -> bool

val has_blocking_findings : triaged list -> bool

(** Rule ids with findings, all of which triage ranked Likely-FP. *)
val demoted_ids : triaged list -> string list

val finding_to_string : finding -> string
