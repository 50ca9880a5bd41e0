(** Experiment E11 — whole-system enforcement: one rulebook per system
    (learned from every original incident), enforced on the assembled
    releases v1/v2/v3/v5.  The 4-system × 4-version sweep is a single
    {!Engine.Scheduler} run, so unchanged-region versions reuse cached
    reports and repeated path conditions hit the SMT verdict cache. *)

type version_row = {
  vr_version : int;
  vr_rules : int;
  vr_violating_rules : string list;  (** rule ids with findings *)
  vr_traces : int;
  vr_branches_total : int;
  vr_branches_recorded : int;
  vr_degraded : string list;  (** rule ids with degraded (lossy) reports *)
  vr_tiers : (string * string) list;
      (** witness-replay tier per violating rule id; empty unless the
          scan ran with triage enabled *)
}

type system_result = { sys_name : string; sys_rows : version_row list }

val learn_system_book :
  ?config:Pipeline.config ->
  ?registry:Corpus.Registry.t ->
  string ->
  Semantics.Rulebook.t

(** The whole scan as one engine run, with the engine's statistics.
    [registry] (default {!Corpus.Registry.builtin}) picks the corpus:
    systems and scan versions come from the registry value.  [triage]
    fills [vr_tiers] via witness-replay triage; absent by default,
    keeping the plain scan byte-identical. *)
val run_engine :
  ?config:Pipeline.config ->
  ?engine_config:Engine.Scheduler.config ->
  ?registry:Corpus.Registry.t ->
  ?triage:Triage.config ->
  unit ->
  system_result list * Engine.Stats.t

(** [run_engine] with the default engine, rows only. *)
val run :
  ?config:Pipeline.config ->
  ?registry:Corpus.Registry.t ->
  unit ->
  system_result list

val print : system_result list -> string

val print_with_stats : system_result list * Engine.Stats.t -> string
