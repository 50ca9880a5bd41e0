(* The enforcement engine (lib/engine): pool determinism, heap
   scheduling, fingerprint stability, incremental invalidation, the
   generic cache, the SMT verdict cache, and whole-engine equivalence
   across pool widths and caching layers. *)

open Smt

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

(* the values of a run in which no item fails *)
let pool_values ~jobs f xs = Array.map Result.get_ok (Engine.Pool.map_results ~jobs f xs)

let test_pool_matches_serial () =
  let xs = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int))
    "jobs=4 equals serial map"
    (Array.map f xs)
    (pool_values ~jobs:4 f xs)

let test_pool_preserves_order () =
  let xs = [| "a"; "b"; "c"; "d"; "e"; "f"; "g" |] in
  Alcotest.(check (array string))
    "input order" xs
    (pool_values ~jobs:3 (fun s -> s) xs)

let test_pool_error_in_slot () =
  let results =
    Engine.Pool.map_results ~jobs:4
      (fun x -> if x = 5 then failwith "boom" else x)
      (Array.init 10 (fun i -> i))
  in
  match results.(5) with
  | Error (Failure m) -> Alcotest.(check string) "worker error" "boom" m
  | _ -> Alcotest.fail "expected the worker exception in its slot"

let test_default_jobs_at_least_one () =
  Alcotest.(check bool) "default jobs >= 1" true (Engine.Pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Job heap                                                            *)
(* ------------------------------------------------------------------ *)

(* One real prepared rule to stuff into hand-made jobs. *)
let zk_case = List.hd Corpus.Zookeeper.cases

let a_prepared =
  lazy
    (let ticket = Corpus.Case.original_ticket zk_case in
     let outcome = Lisa.Pipeline.learn ticket in
     let p = Corpus.Case.program_at zk_case 1 in
     Engine.Checker.prepare p (List.hd outcome.Lisa.Pipeline.accepted))

let job ~id ~priority =
  {
    Engine.Job.job_id = id;
    rule_id = id;
    key = id;
    priority;
    prepared = Lazy.force a_prepared;
  }

let test_schedule_priority_order () =
  let jobs =
    [ job ~id:"a" ~priority:1; job ~id:"b" ~priority:9; job ~id:"c" ~priority:4 ]
  in
  Alcotest.(check (list string))
    "most expensive first" [ "b"; "c"; "a" ]
    (List.map (fun (j : Engine.Job.t) -> j.Engine.Job.job_id)
       (Engine.Job.schedule jobs))

let test_schedule_tie_break () =
  let jobs =
    [ job ~id:"z" ~priority:3; job ~id:"a" ~priority:3; job ~id:"m" ~priority:3 ]
  in
  Alcotest.(check (list string))
    "job-id tie break" [ "a"; "m"; "z" ]
    (List.map (fun (j : Engine.Job.t) -> j.Engine.Job.job_id)
       (Engine.Job.schedule jobs))

let test_heap_push_pop () =
  let h = Engine.Job.Heap.create () in
  Alcotest.(check bool) "fresh heap empty" true (Engine.Job.Heap.is_empty h);
  List.iter (Engine.Job.Heap.push h)
    [ job ~id:"x" ~priority:2; job ~id:"y" ~priority:7 ];
  Alcotest.(check int) "two jobs" 2 (Engine.Job.Heap.length h);
  (match Engine.Job.Heap.pop h with
  | Some j -> Alcotest.(check string) "max first" "y" j.Engine.Job.job_id
  | None -> Alcotest.fail "expected a job");
  ignore (Engine.Job.Heap.pop h);
  Alcotest.(check (option string)) "drained" None
    (Option.map (fun (j : Engine.Job.t) -> j.Engine.Job.job_id)
       (Engine.Job.Heap.pop h))

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_stable_across_reparse () =
  let src = zk_case.Corpus.Case.source 1 in
  Alcotest.(check string)
    "same source, same fingerprint"
    (Engine.Fingerprint.program (Minilang.Parser.program src))
    (Engine.Fingerprint.program (Minilang.Parser.program src))

let test_fingerprint_distinguishes_versions () =
  let fp v = Engine.Fingerprint.program (Corpus.Case.program_at zk_case v) in
  Alcotest.(check bool) "v1 differs from v2" false (fp 1 = fp 2)

let test_job_id_deterministic () =
  let id () = Engine.Fingerprint.job_id ~program_fp:"abc" ~rule_id:"r.g1" in
  Alcotest.(check string) "pure function of its inputs" (id ()) (id ())

let test_region_covers_targets () =
  let p = Corpus.Case.program_at zk_case 1 in
  let graph = Analysis.Callgraph.build p in
  let pr = Lazy.force a_prepared in
  let region = Engine.Fingerprint.region graph pr in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "region contains target %s" m)
        true (List.mem m region))
    (Engine.Checker.prepared_target_methods pr)

(* ------------------------------------------------------------------ *)
(* Incremental invalidation                                            *)
(* ------------------------------------------------------------------ *)

let test_identical_versions_no_changes () =
  let p = Corpus.Case.program_at zk_case 1 in
  Alcotest.(check bool)
    "self-diff is empty" true
    (Engine.Incremental.no_changes (Engine.Incremental.summarize ~prev:p ~cur:p))

let test_version_bump_changes () =
  let prev = Corpus.Case.program_at zk_case 1 in
  let cur = Corpus.Case.program_at zk_case 2 in
  let ch = Engine.Incremental.summarize ~prev ~cur in
  Alcotest.(check bool) "regression edits methods" false (Engine.Incremental.no_changes ch)

let test_lock_rule_always_affected () =
  let prev = Corpus.Case.program_at zk_case 1 in
  let cur = Corpus.Case.program_at zk_case 2 in
  let ch = Engine.Incremental.summarize ~prev ~cur in
  let lock_rule =
    Semantics.Rule.make ~rule_id:"t.l0"
      ~description:"no blocking I/O under a monitor"
      ~high_level:"lock discipline" ~origin:"test"
      (Semantics.Rule.Lock_discipline { scope = Semantics.Rule.Lock_blocking })
  in
  Alcotest.(check bool)
    "lock rules re-run on any change" true
    (Engine.Incremental.rule_affected ch ~region:[] lock_rule);
  Alcotest.(check bool)
    "but not when nothing changed" false
    (Engine.Incremental.rule_affected
       (Engine.Incremental.summarize ~prev ~cur:prev)
       ~region:[] lock_rule)

let test_disjoint_region_unaffected () =
  let prev = Corpus.Case.program_at zk_case 1 in
  let cur = Corpus.Case.program_at zk_case 2 in
  let ch = Engine.Incremental.summarize ~prev ~cur in
  let rule = (Lazy.force a_prepared).Engine.Checker.prep_rule in
  Alcotest.(check bool)
    "region miss + target miss => reuse" false
    (Engine.Incremental.rule_affected ch ~region:[ "SomeOther.method" ]
       {
         rule with
         Semantics.Rule.body =
           Semantics.Rule.State_guard
             {
               target = Semantics.Rule.Stmt_text "no_such_statement_text_xyz";
               condition = Formula.tru;
             };
       })

(* ------------------------------------------------------------------ *)
(* Generic cache                                                       *)
(* ------------------------------------------------------------------ *)

let test_cache_counts_and_bounds () =
  let c = Engine.Cache.create ~capacity:4 ~name:"t" () in
  Alcotest.(check (option int)) "miss on empty" None (Engine.Cache.find c "a");
  Engine.Cache.add c "a" 1;
  Alcotest.(check (option int)) "hit after add" (Some 1) (Engine.Cache.find c "a");
  Alcotest.(check int) "one hit" 1 (Engine.Cache.hits c);
  Alcotest.(check int) "one miss" 1 (Engine.Cache.misses c);
  Alcotest.(check int) "find_or_add computes once" 7
    (Engine.Cache.find_or_add c "b" (fun () -> 7));
  Alcotest.(check int) "then serves the memo" 7
    (Engine.Cache.find_or_add c "b" (fun () -> 99));
  List.iteri (fun i k -> Engine.Cache.add c k i) [ "c"; "d"; "e"; "f"; "g" ];
  Alcotest.(check bool) "bounded by capacity" true (Engine.Cache.size c <= 4)

(* ------------------------------------------------------------------ *)
(* SMT verdict cache: cached == uncached (qcheck)                      *)
(* ------------------------------------------------------------------ *)

(* Same generator as test_smt.ml's solver properties: random formulas
   over three int variables and one bool variable. *)
let gen_formula : Formula.t QCheck.arbitrary =
  let open QCheck in
  let var = Gen.oneofl [ "x"; "y"; "z" ] in
  let term =
    Gen.oneof
      [ Gen.map Formula.tvar var; Gen.map (fun n -> Formula.tint (abs n mod 4)) Gen.small_int ]
  in
  let rel = Gen.oneofl Formula.[ Req; Rneq; Rlt; Rle; Rgt; Rge ] in
  let atom_gen =
    Gen.map3 (fun r l rh -> Formula.atom r l rh) rel term term
  in
  let bool_atom = Gen.oneofl [ Formula.bvar "p"; Formula.eq (Formula.tvar "p") (Formula.tbool false) ] in
  let leaf = Gen.oneof [ atom_gen; bool_atom; Gen.return Formula.tru; Gen.return Formula.fls ] in
  let rec go n =
    if n <= 0 then leaf
    else
      Gen.oneof
        [
          leaf;
          Gen.map (fun f -> Formula.negate f) (go (n - 1));
          Gen.map2 (fun a b2 -> Formula.conj [ a; b2 ]) (go (n / 2)) (go (n / 2));
          Gen.map2 (fun a b2 -> Formula.disj [ a; b2 ]) (go (n / 2)) (go (n / 2));
        ]
  in
  make ~print:Formula.to_string (Gen.sized (fun n -> go (min n 6)))

let with_memo f =
  let was = Memo.enabled () in
  Memo.set_enabled true;
  Fun.protect ~finally:(fun () -> Memo.set_enabled was) f

let render_verdict = function
  | Solver.Sat m -> "sat " ^ Solver.model_to_string m
  | Solver.Unsat -> "unsat"
  | Solver.Unknown reason -> "unknown " ^ reason

(* the full rendered verdict, model included, must not depend on
   whether the answer came from the solver, a cold miss or a warm hit *)
let prop_memo_agrees_with_solver =
  QCheck.Test.make ~count:300 ~name:"cached and uncached verdicts agree"
    gen_formula (fun f ->
      with_memo (fun () ->
          let direct = render_verdict (Solver.solve f) in
          let cold = render_verdict (Memo.solve f) in
          let warm = render_verdict (Memo.solve f) in
          direct = cold && cold = warm))

let prop_memo_check_trace_agrees =
  QCheck.Test.make ~count:200 ~name:"cached complement check agrees"
    (QCheck.pair gen_formula gen_formula) (fun (pc, checker) ->
      with_memo (fun () ->
          let same a b =
            match (a, b) with
            | Solver.Verified, Solver.Verified -> true
            | Solver.Violation _, Solver.Violation _ -> true
            | _ -> false
          in
          same (Solver.check_trace ~pc ~checker) (Memo.check_trace ~pc ~checker)))

let test_memo_disabled_passthrough () =
  Memo.reset ();
  Alcotest.(check bool) "cache off by default" false (Memo.enabled ());
  ignore (Memo.solve Formula.tru);
  ignore (Memo.solve Formula.tru);
  Alcotest.(check int) "no entries when disabled" 0 (Memo.size ());
  Alcotest.(check int) "no hits when disabled" 0 (Telemetry.Metrics.value Memo.hits)

(* id-keyed hit regression: a structurally equal formula built from
   scratch must land on the same cache entry — interning collapses the
   two constructions to one node, so the memo probes one int key and
   renders nothing on the hit path *)
let test_memo_id_keyed_hit_on_fresh_construction () =
  with_memo (fun () ->
      Memo.reset ();
      let mk () =
        Formula.conj
          [
            Formula.gt (Formula.tvar "memo_id_x") (Formula.tint 1);
            Formula.bvar "memo_id_p";
          ]
      in
      let f = mk () and g = mk () in
      Alcotest.(check bool) "separate constructions share the node" true (f == g);
      ignore (Memo.solve f);
      ignore (Memo.solve g);
      Alcotest.(check int) "second construction hits" 1 (Telemetry.Metrics.value Memo.hits);
      Alcotest.(check int) "one entry" 1 (Memo.size ());
      Memo.reset ())

let test_memo_hit_counting () =
  with_memo (fun () ->
      Memo.reset ();
      let f = Formula.gt (Formula.tvar "x") (Formula.tint 0) in
      ignore (Memo.solve f);
      ignore (Memo.solve f);
      Alcotest.(check int) "one miss" 1 (Telemetry.Metrics.value Memo.misses);
      Alcotest.(check int) "one hit" 1 (Telemetry.Metrics.value Memo.hits);
      Memo.reset ())

(* one store for every domain: a repeat query hits on the same domain,
   and a fresh domain hits the very same table without a second miss *)
let test_memo_shared_across_domains () =
  with_memo (fun () ->
      Memo.reset ();
      let f = Formula.gt (Formula.tvar "memo_shared_x") (Formula.tint 3) in
      ignore (Memo.solve f);
      ignore (Memo.solve f);
      Domain.join (Domain.spawn (fun () -> ignore (Memo.solve f)));
      Alcotest.(check int) "two hits" 2 (Telemetry.Metrics.value Memo.hits);
      Alcotest.(check int) "one miss" 1 (Telemetry.Metrics.value Memo.misses);
      Alcotest.(check int) "one entry" 1 (Memo.size ());
      Memo.reset ())

(* restore seeds the store in one lock hold: entries round-trip,
   duplicates are skipped, counters stay untouched *)
let test_memo_restore_round_trip () =
  with_memo (fun () ->
      Memo.reset ();
      let mk i = Formula.gt (Formula.tvar "memo_restore_x") (Formula.tint i) in
      for i = 0 to 19 do
        ignore (Memo.solve (mk i))
      done;
      let entries = Memo.entries () in
      Alcotest.(check int) "20 entries captured" 20 (List.length entries);
      Memo.reset ();
      Alcotest.(check int) "reset emptied the store" 0 (Memo.size ());
      Alcotest.(check int) "all 20 restored" 20 (Memo.restore entries);
      Alcotest.(check int) "restore adds no duplicates" 0 (Memo.restore entries);
      Alcotest.(check int) "size matches" 20 (Memo.size ());
      Alcotest.(check int) "restore records no hits" 0 (Telemetry.Metrics.value Memo.hits);
      Alcotest.(check int) "restore records no misses" 0 (Telemetry.Metrics.value Memo.misses);
      ignore (Memo.solve (mk 7));
      Alcotest.(check int) "a warm query hits" 1 (Telemetry.Metrics.value Memo.hits);
      Memo.reset ())

(* ------------------------------------------------------------------ *)
(* The scheduler: equivalence across pool widths and caching layers    *)
(* ------------------------------------------------------------------ *)

let zk_book = lazy (Lisa.System_scan.learn_system_book "zookeeper")

(* The zookeeper slice of E11 through one engine; per-version report
   summaries are the strongest stable output to compare across modes. *)
let scan config =
  Memo.reset ();
  let engine = Engine.Scheduler.create ~config () in
  let book = Lazy.force zk_book in
  let summaries =
    List.concat_map
      (fun v ->
        let p = Corpus.Registry.program_of Corpus.Registry.builtin "zookeeper" ~version:v in
        List.map
          (fun r -> Printf.sprintf "v%d %s" v (Engine.Checker.report_summary r))
          (Engine.Scheduler.enforce engine p book))
      [ 1; 2; 3; 5 ]
  in
  Memo.reset ();
  (summaries, Engine.Scheduler.stats engine)

let test_jobs1_equals_jobs4 () =
  let serial, _ = scan Engine.Scheduler.cold_config in
  let parallel, _ =
    scan { Engine.Scheduler.cold_config with Engine.Scheduler.jobs = 4 }
  in
  Alcotest.(check (list string)) "identical reports, jobs=1 vs jobs=4" serial parallel

(* the byte-identity pin at the width the sharded stores target *)
let test_jobs1_equals_jobs8 () =
  let serial, _ = scan Engine.Scheduler.cold_config in
  let parallel, _ =
    scan { Engine.Scheduler.cold_config with Engine.Scheduler.jobs = 8 }
  in
  Alcotest.(check (list string)) "identical reports, jobs=1 vs jobs=8" serial
    parallel;
  let warm, _ =
    scan { Engine.Scheduler.default_config with Engine.Scheduler.jobs = 8 }
  in
  Alcotest.(check (list string)) "identical reports with every cache on"
    serial warm

let test_caches_preserve_reports () =
  let cold, cold_stats = scan Engine.Scheduler.cold_config in
  let cached, cached_stats = scan Engine.Scheduler.default_config in
  Alcotest.(check (list string)) "identical reports, cold vs cached" cold cached;
  Alcotest.(check bool)
    (Printf.sprintf "fewer solver calls cached (%d < %d)"
       cached_stats.Engine.Stats.solver_calls cold_stats.Engine.Stats.solver_calls)
    true
    (cached_stats.Engine.Stats.solver_calls < cold_stats.Engine.Stats.solver_calls);
  Alcotest.(check bool) "incremental layer reused work" true
    (cached_stats.Engine.Stats.incremental_reuses > 0)

let test_parallel_cached_equals_serial_cold () =
  let cold, _ = scan Engine.Scheduler.cold_config in
  let full, _ =
    scan { Engine.Scheduler.default_config with Engine.Scheduler.jobs = 4 }
  in
  Alcotest.(check (list string)) "every layer on, jobs=4" cold full

let test_same_version_twice_all_reused () =
  Memo.reset ();
  let engine = Engine.Scheduler.create ~config:Engine.Scheduler.default_config () in
  let book = Lazy.force zk_book in
  let p = Corpus.Registry.program_of Corpus.Registry.builtin "zookeeper" ~version:2 in
  let first = List.map Engine.Checker.report_summary (Engine.Scheduler.enforce engine p book) in
  let ran_once = (Engine.Scheduler.stats engine).Engine.Stats.jobs_run in
  let second = List.map Engine.Checker.report_summary (Engine.Scheduler.enforce engine p book) in
  Memo.reset ();
  Alcotest.(check (list string)) "same reports" first second;
  Alcotest.(check int) "no job re-ran" ran_once
    (Engine.Scheduler.stats engine).Engine.Stats.jobs_run;
  Alcotest.(check int) "all rules reused"
    (Semantics.Rulebook.size book)
    (Engine.Scheduler.stats engine).Engine.Stats.incremental_reuses

let test_report_cache_without_incremental () =
  Memo.reset ();
  let config =
    { Engine.Scheduler.default_config with Engine.Scheduler.incremental = false }
  in
  let engine = Engine.Scheduler.create ~config () in
  let book = Lazy.force zk_book in
  let p = Corpus.Registry.program_of Corpus.Registry.builtin "zookeeper" ~version:3 in
  let first = List.map Engine.Checker.report_summary (Engine.Scheduler.enforce engine p book) in
  let second = List.map Engine.Checker.report_summary (Engine.Scheduler.enforce engine p book) in
  Memo.reset ();
  Alcotest.(check (list string)) "same reports via the report cache" first second;
  Alcotest.(check int) "every rule hit the report cache"
    (Semantics.Rulebook.size book)
    (Engine.Scheduler.stats engine).Engine.Stats.report_hits

(* one enforcement prepares every rule of the program against one test
   index: the index is built once per program, not per rule x tree *)
let test_one_index_per_enforcement () =
  let book = Lazy.force zk_book in
  let guards =
    List.filter
      (fun (r : Semantics.Rule.t) ->
        match r.Semantics.Rule.body with
        | Semantics.Rule.State_guard _ -> true
        | Semantics.Rule.Lock_discipline _ -> false)
      (Semantics.Rulebook.rules book)
  in
  Alcotest.(check bool) "book has >= 2 guard rules" true (List.length guards >= 2);
  let engine = Engine.Scheduler.create ~config:Engine.Scheduler.cold_config () in
  let p = Corpus.Registry.program_of Corpus.Registry.builtin "zookeeper" ~version:2 in
  ignore (Engine.Scheduler.enforce engine p book);
  Alcotest.(check (option int)) "one index build" (Some 1)
    (List.assoc_opt "oracle.test_index.builds"
       (Engine.Stats.counters (Engine.Scheduler.stats engine)))

let test_invalidate_forgets () =
  Memo.reset ();
  let engine = Engine.Scheduler.create ~config:Engine.Scheduler.default_config () in
  let book = Lazy.force zk_book in
  let p = Corpus.Registry.program_of Corpus.Registry.builtin "zookeeper" ~version:1 in
  ignore (Engine.Scheduler.enforce engine p book);
  Engine.Scheduler.invalidate engine;
  Alcotest.(check int) "report cache dropped" 0 (Engine.Scheduler.report_cache_size engine);
  let ran = (Engine.Scheduler.stats engine).Engine.Stats.jobs_run in
  ignore (Engine.Scheduler.enforce engine p book);
  Memo.reset ();
  Alcotest.(check bool) "everything re-ran" true
    ((Engine.Scheduler.stats engine).Engine.Stats.jobs_run > ran)

(* ------------------------------------------------------------------ *)
(* Pre-solver fast path: byte-identical reports, on vs off             *)
(* ------------------------------------------------------------------ *)

let with_fastpath enabled f =
  let was = Smt.Solver.fastpath_enabled () in
  Smt.Solver.set_fastpath_enabled enabled;
  Fun.protect ~finally:(fun () -> Smt.Solver.set_fastpath_enabled was) f

(* The fast-path ladder (abstract domain, root BCP) may only change
   cost, never answers: whole-scan reports must be byte-identical with
   it pinned off, at both pool widths. *)
let test_fastpath_equals_full_jobs1 () =
  let off =
    with_fastpath false (fun () -> fst (scan Engine.Scheduler.default_config))
  in
  let on_ =
    with_fastpath true (fun () -> fst (scan Engine.Scheduler.default_config))
  in
  Alcotest.(check (list string))
    "identical reports, fast path on vs off, jobs=1" off on_

let test_fastpath_equals_full_jobs4 () =
  let jobs4 =
    { Engine.Scheduler.default_config with Engine.Scheduler.jobs = 4 }
  in
  let off = with_fastpath false (fun () -> fst (scan jobs4)) in
  let on_ = with_fastpath true (fun () -> fst (scan jobs4)) in
  Alcotest.(check (list string))
    "identical reports, fast path on vs off, jobs=4" off on_

let isolated f () =
  Lisa.Chaos.reset_shared_state ();
  Fun.protect ~finally:Lisa.Chaos.reset_shared_state f

(* Full DPLL(T) searches run and ladder retirements for [f], counted
   from cold solver stores so neither leg inherits the other's work. *)
let count_solves enabled f =
  Smt.Solver.reset_theory_memo ();
  Smt.Absdom.reset_memo ();
  let f0 = Smt.Solver.full_solve_count ()
  and s0 = Telemetry.Metrics.value Smt.Solver.fastpath_saved in
  let r = with_fastpath enabled f in
  ( r,
    Smt.Solver.full_solve_count () - f0,
    Telemetry.Metrics.value Smt.Solver.fastpath_saved - s0 )

(* The ladder must actually retire searches, not merely agree: on the
   builtin zookeeper scan it answers some queries itself and full
   solves fall. *)
let test_fastpath_retires_searches () =
  let _, full_off, _ =
    count_solves false (fun () -> scan Engine.Scheduler.default_config)
  in
  let _, full_on, saved =
    count_solves true (fun () -> scan Engine.Scheduler.default_config)
  in
  Alcotest.(check bool) (Printf.sprintf "ladder retired %d queries" saved) true
    (saved > 0);
  Alcotest.(check bool)
    (Printf.sprintf "full solves fall (%d -> %d)" full_off full_on)
    true (full_on < full_off)

(* On the 1x seed-42 synthetic corpus the ladder cuts full solves by at
   least a quarter, on byte-identical scan output. *)
let test_fastpath_synth_reduction () =
  let registry = Corpus.Synth.registry ~seed:42 ~scale:1 () in
  let synth_scan () =
    Lisa.Chaos.reset_shared_state ();
    Lisa.System_scan.print (fst (Lisa.System_scan.run_engine ~registry ()))
  in
  let out_off, full_off, _ = count_solves false synth_scan in
  let out_on, full_on, _ = count_solves true synth_scan in
  Alcotest.(check string) "scan output, fast path on vs off" out_off out_on;
  Alcotest.(check bool)
    (Printf.sprintf ">= 25%% fewer full solves (%d -> %d)" full_off full_on)
    true
    (float_of_int full_on <= 0.75 *. float_of_int full_off)

(* The evidence-loss contract must survive the default checker, which
   judges each trace on its own: the one-system chaos smoke, all
   invariants green. *)
let test_chaos_smoke_invariants () =
  let result = Lisa.Chaos.run ~smoke:true () in
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) name true ok)
    (Lisa.Chaos.invariants result)

let suite =
  [
    ( "engine.pool",
      [
        Alcotest.test_case "matches serial map" `Quick test_pool_matches_serial;
        Alcotest.test_case "preserves order" `Quick test_pool_preserves_order;
        Alcotest.test_case "worker error in its slot" `Quick test_pool_error_in_slot;
        Alcotest.test_case "default jobs >= 1" `Quick test_default_jobs_at_least_one;
      ] );
    ( "engine.jobs",
      [
        Alcotest.test_case "priority order" `Quick test_schedule_priority_order;
        Alcotest.test_case "deterministic tie break" `Quick test_schedule_tie_break;
        Alcotest.test_case "heap push/pop" `Quick test_heap_push_pop;
      ] );
    ( "engine.fingerprint",
      [
        Alcotest.test_case "stable across reparse" `Quick test_fingerprint_stable_across_reparse;
        Alcotest.test_case "distinguishes versions" `Quick test_fingerprint_distinguishes_versions;
        Alcotest.test_case "job id deterministic" `Quick test_job_id_deterministic;
        Alcotest.test_case "region covers targets" `Quick test_region_covers_targets;
      ] );
    ( "engine.incremental",
      [
        Alcotest.test_case "self-diff empty" `Quick test_identical_versions_no_changes;
        Alcotest.test_case "version bump changes" `Quick test_version_bump_changes;
        Alcotest.test_case "lock rules always affected" `Quick test_lock_rule_always_affected;
        Alcotest.test_case "disjoint region reused" `Quick test_disjoint_region_unaffected;
      ] );
    ( "engine.cache",
      [ Alcotest.test_case "counters and bounds" `Quick test_cache_counts_and_bounds ] );
    ( "engine.memo",
      [
        QCheck_alcotest.to_alcotest prop_memo_agrees_with_solver;
        QCheck_alcotest.to_alcotest prop_memo_check_trace_agrees;
        Alcotest.test_case "disabled passthrough" `Quick test_memo_disabled_passthrough;
        Alcotest.test_case "hit counting" `Quick test_memo_hit_counting;
        Alcotest.test_case "shared store across domains" `Quick
          test_memo_shared_across_domains;
        Alcotest.test_case "restore round-trips the store" `Quick
          test_memo_restore_round_trip;
        Alcotest.test_case "id-keyed hit on fresh construction" `Quick
          test_memo_id_keyed_hit_on_fresh_construction;
      ] );
    ( "engine.scheduler",
      [
        Alcotest.test_case "jobs=1 == jobs=4" `Quick test_jobs1_equals_jobs4;
        Alcotest.test_case "jobs=1 == jobs=8" `Quick test_jobs1_equals_jobs8;
        Alcotest.test_case "caches preserve reports" `Quick test_caches_preserve_reports;
        Alcotest.test_case "parallel+cached == serial cold" `Quick test_parallel_cached_equals_serial_cold;
        Alcotest.test_case "same version twice reused" `Quick test_same_version_twice_all_reused;
        Alcotest.test_case "report cache without incremental" `Quick test_report_cache_without_incremental;
        Alcotest.test_case "invalidate forgets" `Quick test_invalidate_forgets;
        Alcotest.test_case "one test index per enforcement" `Quick
          test_one_index_per_enforcement;
      ] );
    ( "engine.chaos",
      [
        Alcotest.test_case "chaos smoke invariants" `Slow
          test_chaos_smoke_invariants;
      ] );
    ( "engine.fastpath",
      [
        Alcotest.test_case "fast path == full search, jobs=1" `Quick
          test_fastpath_equals_full_jobs1;
        Alcotest.test_case "fast path == full search, jobs=4" `Quick
          test_fastpath_equals_full_jobs4;
        Alcotest.test_case "fast path retires searches" `Slow
          (isolated test_fastpath_retires_searches);
        Alcotest.test_case "synth 1x: >= 25% fewer full solves" `Slow
          (isolated test_fastpath_synth_reduction);
      ] );
  ]
