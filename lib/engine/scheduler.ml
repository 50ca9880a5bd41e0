(** The enforcement engine: job-scheduled, parallel, incremental, cached
    rulebook enforcement.

    One [enforce] call turns a (program version, rulebook) pair into one
    job per rule and drains the job queue through four layers, cheapest
    first:

    1. {e incremental pre-pass} — if this engine enforced a previous
       version, diff the two ({!Incremental}) and reuse the previous
       report for every rule whose region is untouched (no prepare, no
       fingerprint, no execution);
    2. {e report cache} — remaining rules run {!Checker.prepare} (cheap
       statics) and look up their {!Fingerprint.job_key}; a hit returns
       the memoized report;
    3. {e worker pool} — true misses become prioritized jobs executed on
       {!Pool} ([jobs = 1] is bit-for-bit the serial semantics);
    4. {e SMT verdict cache} — inside every executed job, path-condition
       judgments go through {!Smt.Memo}.

    Reports come back in rulebook order regardless of pool width, and
    every layer can be disabled independently (the cold-serial
    configuration reproduces the historic [Checker.check_book]
    behaviour exactly).

    Telemetry: every phase runs under a [Telemetry.Trace] span
    ([engine.enforce] > [engine.incremental] / [engine.prepare] /
    [engine.execute] > [engine.job]), the engine's own counters are
    declared in [Telemetry.Metrics] below, the {!Stats} recorder takes
    every registry counter's delta across each enforcement, and all wall
    time is read from [Telemetry.Clock]. *)

open Minilang
module Trace = Telemetry.Trace
module Clock = Telemetry.Clock
module Metrics = Telemetry.Metrics

let enforcements = Metrics.counter "engine.enforcements" ~doc:"enforce calls served"

let jobs_run = Metrics.counter "engine.jobs_run" ~doc:"dynamic phases actually executed"

let report_hits =
  Metrics.counter "engine.report_hits" ~doc:"jobs answered from the report cache"

let report_misses =
  Metrics.counter "engine.report_misses" ~doc:"jobs the report cache could not answer"

let incremental_reuses =
  Metrics.counter "engine.incremental_reuses"
    ~doc:"jobs skipped by the diff-based incremental pre-pass"

let retries = Metrics.counter "engine.retries" ~doc:"failed jobs re-run after backoff"

let degraded_jobs =
  Metrics.counter "engine.degraded_jobs"
    ~doc:"jobs whose report carries a degradation reason"

type config = {
  jobs : int;  (** worker domains; 1 = serial on the calling domain *)
  report_cache : bool;  (** layer 2: fingerprint-keyed report memo *)
  smt_cache : bool;  (** layer 4: {!Smt.Memo} verdict cache *)
  incremental : bool;  (** layer 1: diff-based cross-version reuse *)
  checker : Checker.config;
  max_retries : int;
      (** failed jobs are re-run up to this many times before quarantine *)
  retry_backoff_ms : int;
      (** base backoff before a retry round, doubled per attempt and
          capped at 8x; 0 = retry immediately (what tests use) *)
}

let default_config =
  {
    jobs = 1;
    report_cache = true;
    smt_cache = true;
    incremental = true;
    checker = Checker.default_config;
    max_retries = 2;
    retry_backoff_ms = 5;
  }

(** The cold, serial configuration: every caching layer off, so each
    rule is enforced from scratch.  Reproduces the historic one-shot
    checker exactly; report-identity tests compare it against the
    default configuration. *)
let cold_config =
  {
    default_config with
    report_cache = false;
    smt_cache = false;
    incremental = false;
  }

(* what the engine remembers about the last version it enforced *)
type memory = {
  mem_program : Ast.program;
  mem_fp : string;
  mem_entries : (string * (string list * Checker.rule_report)) list;
      (** rule id -> (region at last run, report) *)
}

type t = {
  config : config;
  recorder : Stats.recorder;
  reports : (string, Checker.rule_report) Cache.t;
  mutable last : memory option;
}

let create ?(config = default_config) () : t =
  {
    config;
    recorder = Stats.recorder ();
    reports = Cache.create ~name:"reports" ();
    last = None;
  }

let config t = t.config

let stats t = Stats.snapshot t.recorder

let report_cache_size t = Cache.size t.reports

(** Drop all cached state (reports and version memory). *)
let invalidate t =
  Cache.reset t.reports;
  t.last <- None

let no_change_summary =
  { Incremental.ch_methods = []; Incremental.ch_stmt_texts = [] }

(* capped exponential backoff: base, 2*base, 4*base, ... <= 8*base *)
let backoff_ms (cfg : config) ~(attempt : int) : int =
  if cfg.retry_backoff_ms <= 0 then 0
  else
    let factor = 1 lsl min 3 (max 0 (attempt - 1)) in
    min (cfg.retry_backoff_ms * factor) (8 * cfg.retry_backoff_ms)

(** Enforce a rulebook against a program version through the engine. *)
let enforce (t : t) (p : Ast.program) (book : Semantics.Rulebook.t) :
    Checker.rule_report list =
  Trace.with_span ~cat:"engine" "engine.enforce" @@ fun () ->
  let cfg = t.config in
  let t0 = Clock.now () in
  let before = Metrics.sample () in
  let memo_was = Smt.Memo.enabled () in
  Smt.Memo.set_enabled cfg.smt_cache;
  Fun.protect ~finally:(fun () -> Smt.Memo.set_enabled memo_was) @@ fun () ->
  let rules = Semantics.Rulebook.rules book in
  let program_fp = Fingerprint.program p in
  (* layer 1: incremental pre-pass against the previous version *)
  let reused, fresh =
    Trace.with_span ~cat:"engine" "engine.incremental" @@ fun () ->
    match t.last with
    | Some mem when cfg.incremental ->
        let changes =
          if mem.mem_fp = program_fp then no_change_summary
          else Incremental.summarize ~prev:mem.mem_program ~cur:p
        in
        List.partition_map
          (fun (rule : Semantics.Rule.t) ->
            match List.assoc_opt rule.Semantics.Rule.rule_id mem.mem_entries with
            | Some (region, report)
              when not (Incremental.rule_affected changes ~region rule) ->
                Either.Left (rule.Semantics.Rule.rule_id, (region, report))
            | _ -> Either.Right rule)
          rules
    | _ -> ([], rules)
  in
  Metrics.bump ~by:(List.length reused) incremental_reuses;
  (* layer 2: prepare the rest and consult the report cache *)
  let prepared_rules =
    Trace.with_span ~cat:"engine" "engine.prepare" @@ fun () ->
    let graph = Analysis.Callgraph.build p in
    let methods = Fingerprint.methods p in
    List.map
      (fun rule ->
        let pr = Checker.prepare ~config:cfg.checker ~graph p rule in
        let key = Fingerprint.job_key ~config:cfg.checker ~graph ~methods pr in
        let region = Fingerprint.region graph pr in
        (Job.make ~program_fp ~key pr, region))
      fresh
  in
  let cached, to_run =
    List.partition_map
      (fun ((job : Job.t), region) ->
        match if cfg.report_cache then Cache.find t.reports job.Job.key else None with
        | Some report -> Either.Left (job.Job.rule_id, (region, report))
        | None -> Either.Right (job, region))
      prepared_rules
  in
  Metrics.bump ~by:(List.length cached) report_hits;
  Metrics.bump ~by:(List.length to_run) report_misses;
  (* layer 3: execute the misses on the worker pool, expensive first.
     The pool collects per-slot results instead of re-raising: failed
     jobs are retried with capped deterministic backoff, and jobs still
     failing after [max_retries] rounds are quarantined behind a
     placeholder report — one crashing rule never takes down the run. *)
  let scheduled = Array.of_list (Job.schedule (List.map fst to_run)) in
  let run_job (job : Job.t) =
    Trace.with_span ~cat:"engine" ~args:[ ("rule", job.Job.rule_id) ]
      "engine.job"
    @@ fun () ->
    let j0 = Clock.now () in
    let report = Checker.execute ~config:cfg.checker p job.Job.prepared in
    (job, report, Clock.now () -. j0)
  in
  let results =
    Trace.with_span ~cat:"engine"
      ~args:[ ("scheduled", string_of_int (Array.length scheduled)) ]
      "engine.execute"
    @@ fun () ->
    let results =
      Pool.map_results ~jobs:cfg.jobs run_job scheduled
    in
    let rec retry_failures attempt =
      let failed = Pool.failures results in
      if failed <> [] && attempt <= cfg.max_retries then begin
        let ms = backoff_ms cfg ~attempt in
        List.iter
          (fun (slot, e) ->
            Resilience.Events.emit
              (Resilience.Events.Job_retry
                 {
                   job = scheduled.(slot).Job.rule_id;
                   attempt;
                   backoff_ms = ms;
                   reason = Printexc.to_string e;
                 }))
          failed;
        Metrics.bump ~by:(List.length failed) retries;
        if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.);
        let slots = Array.of_list (List.map fst failed) in
        let rerun =
          Pool.map_results ~jobs:cfg.jobs
            (fun slot -> run_job scheduled.(slot))
            slots
        in
        Array.iteri (fun k r -> results.(slots.(k)) <- r) rerun;
        retry_failures (attempt + 1)
      end
    in
    retry_failures 1;
    results
  in
  let executed =
    Array.to_list results
    |> List.mapi (fun slot result ->
           match result with
           | Ok v -> v
           | Error e ->
               let job = scheduled.(slot) in
               let reason = Printexc.to_string e in
               Resilience.Events.emit
                 (Resilience.Events.Job_quarantined
                    {
                      job = job.Job.rule_id;
                      attempts = cfg.max_retries + 1;
                      reason;
                    });
               Stats.quarantine t.recorder job.Job.rule_id;
               let report =
                 Checker.quarantined_report
                   job.Job.prepared.Checker.prep_rule ~reason
               in
               (job, report, 0.))
  in
  let region_of_job (job : Job.t) =
    match
      List.find_opt (fun ((j : Job.t), _) -> j.Job.job_id = job.Job.job_id) to_run
    with
    | Some (_, region) -> region
    | None -> []
  in
  let ran =
    List.map
      (fun ((job : Job.t), report, wall) ->
        (* degraded reports never enter the cache: they describe a bad
           moment (open breaker, exhausted budget), not the program, and
           must not poison later healthy enforcements *)
        if cfg.report_cache && not (Checker.is_degraded report) then
          Cache.add t.reports job.Job.key report;
        if Checker.is_degraded report then Metrics.bump degraded_jobs;
        Metrics.bump jobs_run;
        Stats.add_job_time t.recorder
          {
            Stats.jt_job_id = job.Job.job_id;
            Stats.jt_rule_id = job.Job.rule_id;
            Stats.jt_wall_s = wall;
          };
        (job.Job.rule_id, (region_of_job job, report)))
      executed
  in
  (* assemble in rulebook order and refresh the version memory *)
  let entries = reused @ cached @ ran in
  let reports_in_order =
    List.map
      (fun (rule : Semantics.Rule.t) ->
        match List.assoc_opt rule.Semantics.Rule.rule_id entries with
        | Some (_, report) -> report
        | None -> assert false (* every rule fell into exactly one layer *))
      rules
  in
  (* degraded reports are also kept out of the incremental memory: the
     next enforcement must re-run those rules, not reuse their gaps *)
  let durable_entries =
    List.filter
      (fun (_, (_, report)) -> not (Checker.is_degraded report))
      entries
  in
  t.last <-
    Some { mem_program = p; mem_fp = program_fp; mem_entries = durable_entries };
  (* bookkeeping: every registry counter's delta, and one trace
     counter event per declared metric *)
  Metrics.bump enforcements;
  let after = Metrics.sample () in
  Stats.record t.recorder ~wall:(Clock.now () -. t0) before after;
  Metrics.trace ~cat:"engine" after;
  reports_in_order

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
