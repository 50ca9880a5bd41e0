(** The end-to-end LISA workflow (Figure 5): ticket → inference →
    translation → cross-check → rulebook → enforcement.

    The cross-check stage implements the §5 mitigation for LLM
    unreliability: a mined rule is grounded against the patched version of
    its own ticket — the target must exist, no trace may violate it, and
    at least one trace must verify it — before it enters the rulebook. *)

type stage_log = { stage : string; detail : string }

type outcome = {
  ticket : Oracle.Ticket.t;
  prompt : string;  (** the Listing-1 prompt that was (notionally) sent *)
  inference : Oracle.Inference.inferred;
  accepted : Semantics.Rule.t list;
  rejected : (Semantics.Rule.t * string) list;  (** rule, reason *)
  log : stage_log list;
}

type config = {
  checker : Engine.Checker.config;
  generalize : bool;  (** apply rule generalization before cross-checking *)
  oracle : Oracle.Inference.client;
      (** the inference backend (default {!Oracle.Inference.default_client}).
          A client that raises is retried twice, then answered with
          {!Oracle.Inference.degraded_inference}; E9 passes a noisy one *)
  cross_check : bool;  (** validate rules against the patched version *)
}

val default_config : config

(** Learn rules from one ticket. *)
val learn : ?config:config -> Oracle.Ticket.t -> outcome

(** Learn from a ticket sequence into a fresh rulebook. *)
val learn_all :
  ?config:config ->
  system:string ->
  Oracle.Ticket.t list ->
  Semantics.Rulebook.t * outcome list

(** Enforce a rulebook against a program version. *)
val enforce :
  ?config:config ->
  Minilang.Ast.program ->
  Semantics.Rulebook.t ->
  Engine.Checker.rule_report list

(** Enforce a rulebook through an enforcement engine: the same
    prepare/execute body as {!enforce} ({!Engine.Checker.check_book}),
    so the same reports; the worker pool, verdict cache and statistics
    are the engine's. *)
val enforce_with :
  Engine.Scheduler.t ->
  Minilang.Ast.program ->
  Semantics.Rulebook.t ->
  Engine.Checker.rule_report list

(** The reports that carry violations. *)
val findings : Engine.Checker.rule_report list -> Engine.Checker.rule_report list
