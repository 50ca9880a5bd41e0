(** Rule enforcement (paper §3.2), split into a static phase
    ({!prepare}: target resolution, execution trees, test selection) and
    a dynamic phase ({!execute}: concolic exploration + SMT judging).
    The engine ({!Scheduler}) runs the dynamic phase on its worker pool;
    [check_rule] composes the two for one rule, and [check_book] is the
    one rulebook body the engine shares. *)

open Minilang

type test_selection =
  | Rag of int  (** top-k similarity selection (the paper's approach) *)
  | All_tests
  | Pseudo_random of { seed : int; k : int }

type check_method = Complement | Direct

type config = {
  selection : test_selection;
  prune : bool;
  method_ : check_method;
  fuel : int;
}

val default_config : config

(** Stable rendering of the result-influencing knobs; part of the serve
    daemon's response-cache key. *)
val config_tag : config -> string

(** One judged trace (a target arrival). *)
type trace_verdict = {
  tv_target_sid : int;
  tv_method : string;
  tv_entry : string;  (** driving test *)
  tv_pc : Smt.Formula.t;
  tv_result : Smt.Solver.trace_check;
  tv_state : (string * Smt.Formula.value) list;
      (** concrete valuation of the checker condition's variables observed
          at the target arrival (references as opaque markers) — the
          witness-replay triage's concrete evidence *)
}

type lock_finding = {
  lf_method : string;
  lf_op : string;
  lf_static : bool;  (** found statically (vs. observed dynamically) *)
  lf_sid : int;
}

type rule_report = {
  rep_rule : Semantics.Rule.t;
  rep_targets : int;  (** resolved target statements *)
  rep_static_paths : int;  (** paths in the execution trees *)
  rep_tests_run : string list;
  rep_traces : trace_verdict list;
  rep_violations : trace_verdict list;  (** subset of traces *)
  rep_verified : trace_verdict list;
  rep_uncovered_paths : string list;  (** rendered exec paths never observed *)
  rep_lock_findings : lock_finding list;
  rep_sanity_ok : bool;
      (** at least one verified trace exists — §3.2's "fixed paths act as
          our sanity check" requirement (state-guard rules only) *)
  rep_branches_total : int;
  rep_branches_recorded : int;
  rep_undecided : trace_verdict list;
      (** subset of traces the solver could not judge: its node budget
          ran out, so the trace is neither verified nor a violation *)
  rep_degraded : string list;
      (** degradation reasons: why this report may under-approximate the
          truth.  Empty on a healthy run. *)
}

val has_violations : rule_report -> bool

(** Some of this report's evidence was lost (fuel or node budget
    exhausted, job quarantined): a pass with an asterisk, never a clean
    pass. *)
val is_degraded : rule_report -> bool

(** Placeholder report for a rule whose job raised: no evidence either
    way, the exception on record, [rep_sanity_ok = false]. *)
val quarantined_report : Semantics.Rule.t -> reason:string -> rule_report

(** {1 The two-phase API used by the engine} *)

(** Output of the static phase: the dynamic phase's full input set. *)
type prepared = {
  prep_rule : Semantics.Rule.t;
  prep_tests : string list;  (** concrete inputs the dynamic phase runs *)
  prep_kind : prep_kind;
}

and prep_kind =
  | Prep_guard of {
      pg_condition : Smt.Formula.t;
      pg_targets : (string * Ast.stmt) list;
          (** enclosing qualified method, resolved target statement *)
      pg_trees : Analysis.Paths.exec_tree list;
    }
  | Prep_lock of { pl_scope : Semantics.Rule.lock_scope }

val prepared_static_paths : prepared -> Analysis.Paths.exec_path list

(** Static phase.  [?graph] shares a prebuilt call graph across the rules
    of one program version. *)
val prepare :
  ?config:config ->
  ?graph:Analysis.Callgraph.t ->
  Ast.program ->
  Semantics.Rule.t ->
  prepared

(** Dynamic phase: the unit of work the engine parallelizes. *)
val execute : ?config:config -> Ast.program -> prepared -> rule_report

(** Judge concolic hits against a checker condition, in input order:
    one independent {!Smt.Memo} query per hit.  An ill-sorted condition
    ({!Smt.Theory.ill_sorted}) is never sent to the solver: every hit is
    [Undecided].  Exposed so trace judging can be timed and tested on
    its own. *)
val judge_hits :
  config ->
  condition:Smt.Formula.t ->
  Symexec.Concolic.hit list ->
  trace_verdict list

(** The dynamic phase's concolic evidence for a state-guard rule: its
    checker condition and every target hit, in execution order ([None]
    for lock rules), so trace judging can be timed apart from concolic
    exploration. *)
val guard_evidence :
  ?config:config ->
  Ast.program ->
  prepared ->
  (Smt.Formula.t * Symexec.Concolic.hit list) option

(** {1 Single-shot entry points} *)

(** Check one rule against a program version. *)
val check_rule :
  ?config:config -> Ast.program -> Semantics.Rule.t -> rule_report

(** Check a whole rulebook: one shared call graph, {!prepare} per rule
    in rulebook order (span [engine.prepare]), then [run] (default
    [List.map]) applies {!execute} to the prepared rules and must return
    their reports in the same order (span [engine.execute]).  The engine
    passes its worker pool as [run]; every other caller runs serially. *)
val check_book :
  ?config:config ->
  ?run:((prepared -> rule_report) -> prepared list -> rule_report list) ->
  Ast.program ->
  Semantics.Rulebook.t ->
  rule_report list

val report_summary : rule_report -> string
