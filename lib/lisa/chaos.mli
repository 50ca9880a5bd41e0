(** Chaos suite: the E11 whole-system workload under deterministic
    evidence loss — small fuel and solver node budgets, plus an oracle
    client that always raises.  It checks the engine's contract for lost
    evidence: nothing escapes [enforce], every level's output is the
    same across repeat runs and pool widths, lost evidence only ever
    removes findings, and a default-budget re-run renders byte-identical
    to the baseline. *)

(** One evidence-loss level: a checker fuel and/or a default solver
    node budget ([None] keeps the stock value).  The suite runs fuel 3,
    node budget 1, node budget 3, and fuel 500 with node budget 2. *)
type level = {
  lv_name : string;
  lv_fuel : int option;
  lv_node_budget : int option;
}

type observation = {
  ob_findings : (string * int * string list) list;
      (** (system, version, violating rule ids) in scan order *)
  ob_degraded : (string * int * string list) list;
      (** (system, version, degraded rule ids) in scan order *)
  ob_quarantined : string list;  (** sorted rule ids *)
  ob_crash : string option;  (** an exception escaped [enforce] *)
  ob_render : string;  (** full Markdown of every report, in scan order *)
}

type level_result = {
  lr_level : level;
  lr_runs : (int * observation) list;
      (** (jobs, observation): jobs 1, jobs 1 again, jobs 2, jobs 4 *)
}

type outage = {
  out_accepted : int;  (** rules accepted from a ticket *)
  out_retries : int;  (** [Job_retry] events emitted while learning *)
  out_raised : string option;  (** an exception escaped [learn] *)
}

type result = {
  res_systems : string list;
  res_baseline : observation;
  res_levels : level_result list;
  res_post : observation;  (** default-budget re-run after every level *)
  res_outage : outage;  (** learning through an always-raising oracle *)
}

(** Reset the process-global state every chaos run starts from: the
    SMT verdict cache emptied and the solver's default node budget back
    at its stock value. *)
val reset_shared_state : unit -> unit

(** Run the suite.  [smoke] restricts it to hbase, the one system that
    loses evidence at every level (the CI gate). *)
val run : ?smoke:bool -> unit -> result

(** Named invariant checks, in report order. *)
val invariants : result -> (string * bool) list

val invariants_ok : result -> bool

val print : result -> string
