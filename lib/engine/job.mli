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

(** Strict scheduling order: higher priority first, rule-id tie-break. *)
val before : t -> t -> bool

(** Array-backed binary max-heap over {!before}. *)
module Heap : sig
  type job = t

  type t

  val create : unit -> t

  val length : t -> int

  val is_empty : t -> bool

  val push : t -> job -> unit

  val pop : t -> job option

  val of_list : job list -> t
end

(** Jobs in scheduling order (heap drain; deterministic). *)
val schedule : t list -> t list
