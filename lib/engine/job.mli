(** The engine's job model: one job per rule, identified by its rule id,
    with a cost-estimate priority (most-expensive-first minimizes the
    parallel makespan tail; ties break on rule id so scheduling is fully
    deterministic). *)

type t = {
  rule_id : string;
  priority : int;  (** estimated cost; higher schedules earlier *)
  prepared : Checker.prepared;
}

(** Estimated dynamic-phase cost (tests × static paths for guards; a
    large constant plus the suite size for lock rules). *)
val estimate_cost : Checker.prepared -> int

val make : Checker.prepared -> t

(** Jobs in scheduling order: higher priority first, rule-id tie-break
    (deterministic, since rule ids are unique). *)
val schedule : t list -> t list
