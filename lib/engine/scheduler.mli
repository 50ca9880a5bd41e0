(** The enforcement engine: job-scheduled, parallel rulebook enforcement.
    See [lib/engine/README.md] for the architecture.

    [enforce] is a function of (config, program version, rulebook):
    {!Checker.check_book}'s prepare/execute body with the worker pool as
    its executor.  Nothing but the statistics survives from one call to
    the next. *)

open Minilang

type config = {
  jobs : int;  (** worker domains; 1 = serial on the calling domain *)
  checker : Checker.config;
}

(** jobs = 1, the verdict cache on, the default checker. *)
val default_config : config

(** A configuration plus the statistics of every enforcement made
    through it. *)
type t

val create : ?config:config -> unit -> t

val config : t -> config

(** A point-in-time snapshot of the engine's statistics: every registry
    counter's total over this engine's enforcements. *)
val stats : t -> Stats.t

(** Enforce a rulebook against a program version: one call graph,
    {!Checker.prepare} per rule, {!Checker.execute} per rule on the
    worker pool.  Reports return in rulebook order, identical for every
    pool width, and identical to {!Checker.check_book}'s.  A rule whose
    job raises is quarantined at once: its report is
    {!Checker.quarantined_report} with the exception as the reason. *)
val enforce :
  t -> Ast.program -> Semantics.Rulebook.t -> Checker.rule_report list

(** The reports that carry violations. *)
val findings : Checker.rule_report list -> Checker.rule_report list

(** Violating rule ids in rulebook order — the stable summary compared
    across engine configurations. *)
val finding_ids : Checker.rule_report list -> string list

(** Rule ids whose reports are degraded (lost evidence), in rulebook
    order.  A clean run returns []. *)
val degraded_ids : Checker.rule_report list -> string list
