(** The enforcement engine: job-scheduled, parallel rulebook enforcement.

    [enforce] is a function of (config, program version, rulebook): it
    runs {!Checker.check_book} — one call graph, {!Checker.prepare} per
    rule — with the worker pool as its executor.  Each prepared rule
    becomes a job, the jobs run most-expensive-first on {!Pool}
    ([jobs = 1] is bit-for-bit the serial semantics), and inside every
    job the path-condition judgments go through the {!Smt.Memo} verdict
    cache.  Nothing survives from one call to the next except the
    statistics: there is no report cache and no memory of the previous
    version.

    Reports come back in rulebook order regardless of pool width.

    Telemetry: every phase runs under a [Telemetry.Trace] span
    ([engine.enforce] > [engine.prepare] / [engine.execute] >
    [engine.job]), the engine's own counters are declared in
    [Telemetry.Metrics] below, the {!Stats} recorder takes every registry
    counter's delta across each enforcement, and all wall time is read
    from [Telemetry.Clock]. *)

open Minilang
module Trace = Telemetry.Trace
module Clock = Telemetry.Clock
module Metrics = Telemetry.Metrics

let enforcements = Metrics.counter "engine.enforcements" ~doc:"enforce calls served"

let jobs_run = Metrics.counter "engine.jobs_run" ~doc:"dynamic phases actually executed"

let degraded_jobs =
  Metrics.counter "engine.degraded_jobs"
    ~doc:"jobs whose report carries a degradation reason"

type config = {
  jobs : int;  (** worker domains; 1 = serial on the calling domain *)
  checker : Checker.config;
}

let default_config =
  { jobs = 1; checker = Checker.default_config }

type t = { config : config; recorder : Stats.recorder }

let create ?(config = default_config) () : t =
  { config; recorder = Stats.recorder () }

let config t = t.config

let stats t = Stats.snapshot t.recorder

(* The executor [Checker.check_book] runs the dynamic phase with: the
   prepared rules as jobs on the worker pool, expensive first.  The pool
   collects per-slot results instead of re-raising, and a job that
   raised is quarantined at once behind a placeholder report: the
   dynamic phase is deterministic, so a re-run would raise again, and
   one crashing rule never takes down the run. *)
let run_jobs (t : t) (execute : Checker.prepared -> Checker.rule_report)
    (prepared : Checker.prepared list) : Checker.rule_report list =
  let scheduled = Array.of_list (Job.schedule (List.map Job.make prepared)) in
  let run_job (job : Job.t) =
    Trace.with_span ~cat:"engine" ~args:[ ("rule", job.Job.rule_id) ]
      "engine.job"
    @@ fun () ->
    let j0 = Clock.now () in
    let report = execute job.Job.prepared in
    (report, Clock.now () -. j0)
  in
  let results = Pool.map_results ~jobs:t.config.jobs run_job scheduled in
  let by_rule = Hashtbl.create (Array.length scheduled) in
  Array.iteri
    (fun slot result ->
      let job = scheduled.(slot) in
      let report, wall =
        match result with
        | Ok v -> v
        | Error e ->
            let reason = Printexc.to_string e in
            Resilience.Events.emit
              (Resilience.Events.Job_quarantined { job = job.Job.rule_id; reason });
            Stats.quarantine t.recorder job.Job.rule_id;
            ( Checker.quarantined_report job.Job.prepared.Checker.prep_rule ~reason,
              0. )
      in
      if Checker.is_degraded report then Metrics.bump degraded_jobs;
      Metrics.bump jobs_run;
      Stats.add_job_time t.recorder
        { Stats.jt_rule_id = job.Job.rule_id; Stats.jt_wall_s = wall };
      Hashtbl.replace by_rule job.Job.rule_id report)
    results;
  List.map
    (fun (pr : Checker.prepared) ->
      Hashtbl.find by_rule pr.Checker.prep_rule.Semantics.Rule.rule_id)
    prepared

(** Enforce a rulebook against a program version through the engine. *)
let enforce (t : t) (p : Ast.program) (book : Semantics.Rulebook.t) :
    Checker.rule_report list =
  Trace.with_span ~cat:"engine" "engine.enforce" @@ fun () ->
  let t0 = Clock.now () in
  let before = Metrics.sample () in
  let reports =
    Checker.check_book ~config:t.config.checker ~run:(run_jobs t) p book
  in
  (* bookkeeping: every registry counter's delta, and one trace
     counter event per declared metric *)
  Metrics.bump enforcements;
  let after = Metrics.sample () in
  Stats.record t.recorder ~wall:(Clock.now () -. t0) before after;
  Metrics.trace ~cat:"engine" after;
  reports

(** The reports that carry violations. *)
let findings (reports : Checker.rule_report list) : Checker.rule_report list =
  List.filter Checker.has_violations reports

(** Violating rule ids of an enforcement, in rulebook order — the
    stable summary benchmarks and tests compare across configurations. *)
let finding_ids (reports : Checker.rule_report list) : string list =
  List.map
    (fun (r : Checker.rule_report) -> r.Checker.rep_rule.Semantics.Rule.rule_id)
    (findings reports)

(** Rule ids whose reports are degraded (lost evidence), in rulebook
    order.  A clean run returns []. *)
let degraded_ids (reports : Checker.rule_report list) : string list =
  List.filter_map
    (fun (r : Checker.rule_report) ->
      if Checker.is_degraded r then
        Some r.Checker.rep_rule.Semantics.Rule.rule_id
      else None)
    reports
