(** CI/CD enforcement: gated replay of a case's version history (the
    paper's executable-contract vision), engine-backed — one
    {!Engine.Scheduler} per replay, so later stages reuse earlier
    stages' clean reports for rules whose region a commit left
    untouched. *)

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

(** Failing tests of a version, rendered. *)
val run_tests : Minilang.Ast.program -> string list

(** Replay a case's history through the gate.  [jobs] (default 1) is the
    engine worker-pool width; 1 is bit-for-bit deterministic.  [triage]
    (default off — byte-identical to the pre-triage gate) enables
    witness-replay triage: only findings that survive it block a stage;
    all-Likely-FP rules surface as advisory {!Demoted} events. *)
val replay :
  ?config:Pipeline.config -> ?jobs:int -> ?triage:Triage.config ->
  Corpus.Case.t -> run

(** Gate every case of [registry] (default the builtin corpus), in
    registry order. *)
val replay_all :
  ?config:Pipeline.config -> ?jobs:int -> ?triage:Triage.config ->
  ?registry:Corpus.Registry.t -> unit -> run list

(** Stages blocked by the rulebook gate. *)
val blocked_stages : run -> int list

(** Stages whose enforcement was degraded (lost evidence). *)
val degraded_stages : run -> int list

val event_to_string : event -> string

val run_to_string : run -> string
