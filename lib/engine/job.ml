(** The engine's job model.

    One job per rule of the rulebook being enforced; its id is the rule
    id, unique within a rulebook.

    Jobs carry a cost estimate used as the scheduling priority: the
    worker pool drains jobs most-expensive-first, which minimizes the
    makespan tail when the pool is wider than one domain (classic LPT
    scheduling).  Ties break on rule id, keeping the order — and with it
    the [jobs = 1] execution — fully deterministic. *)

type t = {
  rule_id : string;
  priority : int;  (** estimated cost; higher schedules earlier *)
  prepared : Checker.prepared;
}

(* Estimated dynamic-phase cost.  State guards run [tests × paths]
   concolic explorations; lock rules sweep the whole suite plus a
   whole-program static scan, which in practice dominates any single
   guard, hence the large constant. *)
let estimate_cost (pr : Checker.prepared) : int =
  let n_tests = List.length pr.Checker.prep_tests in
  match pr.Checker.prep_kind with
  | Checker.Prep_guard _ ->
      n_tests * (1 + List.length (Checker.prepared_static_paths pr))
  | Checker.Prep_lock _ -> 10_000 + n_tests

let make (pr : Checker.prepared) : t =
  {
    rule_id = pr.Checker.prep_rule.Semantics.Rule.rule_id;
    priority = estimate_cost pr;
    prepared = pr;
  }

(** Jobs in scheduling order: higher priority first, rule-id tie-break.
    Rule ids are unique, so the order is total and deterministic. *)
let schedule (jobs : t list) : t list =
  List.stable_sort
    (fun a b ->
      match Int.compare b.priority a.priority with
      | 0 -> String.compare a.rule_id b.rule_id
      | c -> c)
    jobs
