(* Golden pin of the engine statistics for the builtin-corpus scan
   ([Lisa.System_scan.run_engine]) at jobs=1 and then jobs=2, each from
   the same reset shared state.  It runs as its own executable because
   the intern-table counts depend on everything the process interned
   before the scan.

   The values were captured from the engine as it was before its
   counters moved into [Telemetry.Metrics]: then every one below was a
   [Stats.t] field.  The exceptions are marked: counters that had no
   field then.  The hash-cons ([core.intern.*]), solver ([smt.solve_calls])
   and verdict-cache ([smt.memo.*]) counts were
   re-captured when the checker stopped grouping traces in a
   path-condition trie: every trace now builds and solves its own
   query, including the two the trie used to answer from a refuted
   prefix.  [engine.jobs_run], [smt.memo.hits], [core.intern.hits] and
   [oracle.test_index.builds] were re-captured when the engine lost its
   report cache and incremental pre-pass: every rule now runs at every
   version, and the reuse counters are gone.  The solver and
   verdict-cache counts were re-captured again when the solver lost its
   fast path and [Smt.Memo] became on by default: learning now fills
   the cache before the scan enforces, so the scan answers more queries
   from it, and every query it does solve is a full search. *)

let scan jobs =
  Lisa.Chaos.reset_shared_state ();
  let engine_config =
    { Engine.Scheduler.default_config with Engine.Scheduler.jobs }
  in
  snd (Lisa.System_scan.run_engine ~engine_config ())

let pinned ~jobs =
  [
    ("core.shard.contention", 0);
    ("core.intern.hits", if jobs = 1 then 32858 else 32851);
    ("core.intern.misses", if jobs = 1 then 86 else 0);
    (* no field before: the live-size delta equals the misses *)
    ("core.intern.size", if jobs = 1 then 86 else 0);
    ("smt.solve_calls", 15);
    (* no field before *)
    ("smt.full_solves", 15);
    ("smt.memo.hits", 183);
    ("smt.memo.misses", 15);
    ("smt.memo.entries", 15);
    (* no field before *)
    ("oracle.test_index.builds", 16);
    ("engine.enforcements", 16);
    ("engine.jobs_run", 68);
    ("engine.degraded_jobs", 0);
    (* no fields before; triage never runs inside an enforcement *)
    ("triage.tier.witnessed", 0);
    ("triage.tier.consistent", 0);
    ("triage.tier.likely_fp", 0);
  ]

let without_wall s =
  match String.rindex_opt s ',' with
  | Some i when String.ends_with ~suffix:"s wall" s -> String.sub s 0 i
  | _ -> Alcotest.failf "no wall time at the end of %S" s

let check_scan jobs () =
  let s = scan jobs in
  let open Engine.Stats in
  Alcotest.(check string) "to_string"
    "engine: 16 enforcement(s), 68 job(s) run, smt cache 183/15 hit/miss, 15 \
     solver call(s) (183 saved)"
    (without_wall (to_string s));
  let field name v expected = Alcotest.(check int) name expected v in
  field "enforcements" s.enforcements 16;
  field "jobs_run" s.jobs_run 68;
  field "report_hits" s.report_hits 0;
  field "report_misses" s.report_misses 0;
  field "incremental_reuses" s.incremental_reuses 0;
  field "smt_hits" s.smt_hits 183;
  field "smt_misses" s.smt_misses 15;
  field "intern_hits" s.intern_hits (if jobs = 1 then 32858 else 32851);
  field "intern_misses" s.intern_misses (if jobs = 1 then 86 else 0);
  field "intern_size" s.intern_size 637;
  field "solver_calls" s.solver_calls 15;
  field "fastpath_saved" s.fastpath_saved 0;
  field "retries" s.retries 0;
  field "degraded_jobs" s.degraded_jobs 0;
  Alcotest.(check (list string)) "quarantined" [] s.quarantined;
  let expected = pinned ~jobs in
  Alcotest.(check (list string)) "declared counters" (List.map fst expected)
    (List.map fst (counters s));
  List.iter
    (fun (name, v) ->
      (* shard-lock waits depend on how the two domains interleave:
         pinned at jobs=1, bounded at jobs=2 *)
      match name with
      | "core.shard.contention" when jobs > 1 ->
          Alcotest.(check bool) name true (v >= 0)
      | _ -> Alcotest.(check int) name (List.assoc name expected) v)
    (counters s)

let () =
  Alcotest.run "golden-stats"
    [
      ( "engine.golden",
        [
          Alcotest.test_case "builtin scan, jobs=1" `Quick (check_scan 1);
          Alcotest.test_case "builtin scan, jobs=2" `Quick (check_scan 2);
        ] );
    ]
