(** The enforcement engine: job-scheduled, parallel, incremental, cached
    rulebook enforcement.  See [lib/engine/README.md] for the
    architecture (job model, cache keys, invalidation rule).

    Layers, cheapest first, each independently switchable: (1) the
    diff-based incremental pre-pass, (2) the fingerprint-keyed report
    cache, (3) the domain worker pool, (4) the {!Smt.Memo} verdict
    cache.  [jobs = 1] with all layers off reproduces the historic
    serial [Checker.check_book] behaviour exactly. *)

open Minilang

type config = {
  jobs : int;  (** worker domains; 1 = serial on the calling domain *)
  report_cache : bool;
  smt_cache : bool;
  incremental : bool;
  checker : Checker.config;
  max_retries : int;
      (** failed jobs are re-run up to this many times before quarantine *)
  retry_backoff_ms : int;
      (** base backoff before a retry round, doubled per attempt and
          capped at 8x; 0 = retry immediately *)
}

(** jobs = 1, all layers on. *)
val default_config : config

(** jobs = 1, all caching layers off: the historic serial checker, the
    baseline the report-identity tests compare against. *)
val cold_config : config

type t

val create : ?config:config -> unit -> t

val config : t -> config

(** A point-in-time snapshot of the engine's statistics: every registry
    counter's total over this engine's enforcements. *)
val stats : t -> Stats.t

val report_cache_size : t -> int

(** Drop all cached state (reports and version memory). *)
val invalidate : t -> unit

(** Enforce a rulebook against a program version.  Reports return in
    rulebook order, identical for every pool width. *)
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
