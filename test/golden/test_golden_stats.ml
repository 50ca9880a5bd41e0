(* Golden pin of the engine statistics for the builtin-corpus scan
   ([Lisa.System_scan.run_engine]) at jobs=1 and then jobs=2, each from
   the same reset shared state.  It runs as its own executable because
   the intern-table counts depend on everything the process interned
   before the scan.

   The values were captured from the engine as it was before its
   counters moved into [Telemetry.Metrics]: then every one below was a
   [Stats.t] field.  The exceptions are marked: counters that had no
   field then.  The hash-cons ([core.intern.*]), solver ([smt.solve_calls],
   [smt.fastpath.*]) and verdict-cache ([smt.memo.*]) counts were
   re-captured when the checker stopped grouping traces in a
   path-condition trie: every trace now builds and solves its own
   query, including the two the trie used to answer from a refuted
   prefix. *)

let fresh () =
  Lisa.Chaos.reset_shared_state ();
  Smt.Solver.reset_theory_memo ();
  Smt.Absdom.reset_memo ()

let scan jobs =
  fresh ();
  let engine_config =
    { Engine.Scheduler.default_config with Engine.Scheduler.jobs }
  in
  snd (Lisa.System_scan.run_engine ~engine_config ())

let pinned ~jobs =
  [
    ("core.shard.contention", 0);
    ("core.intern.hits", if jobs = 1 then 25995 else 25988);
    ("core.intern.misses", if jobs = 1 then 86 else 0);
    (* no field before: the live-size delta equals the misses *)
    ("core.intern.size", if jobs = 1 then 86 else 0);
    ("smt.solve_calls", 24);
    ("smt.propagations", 2);
    ("smt.fastpath.interval", 9);
    ("smt.fastpath.bcp", 1);
    ("smt.fastpath.saved", 10);
    (* no field before *)
    ("smt.full_solves", 13);
    ("smt.memo.hits", 124);
    ("smt.memo.misses", 24);
    ("smt.memo.entries", 24);
    (* no field before *)
    ("oracle.test_index.builds", 14);
    ("engine.enforcements", 16);
    ("engine.jobs_run", 54);
    ("engine.report_hits", 0);
    ("engine.report_misses", 54);
    ("engine.incremental_reuses", 14);
    ("engine.retries", 0);
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
    "engine: 16 enforcement(s), 54 job(s) run, report cache 0/54 hit/miss, 14 \
     incremental reuse(s), smt cache 124/24 hit/miss, 24 solver call(s) (124 \
     saved)"
    (without_wall (to_string s));
  let field name v expected = Alcotest.(check int) name expected v in
  field "enforcements" s.enforcements 16;
  field "jobs_run" s.jobs_run 54;
  field "report_hits" s.report_hits 0;
  field "report_misses" s.report_misses 54;
  field "incremental_reuses" s.incremental_reuses 14;
  field "smt_hits" s.smt_hits 124;
  field "smt_misses" s.smt_misses 24;
  field "intern_hits" s.intern_hits (if jobs = 1 then 25995 else 25988);
  field "intern_misses" s.intern_misses (if jobs = 1 then 86 else 0);
  field "intern_size" s.intern_size 637;
  field "solver_calls" s.solver_calls 24;
  field "fastpath_saved" s.fastpath_saved 10;
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
