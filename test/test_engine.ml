(* The enforcement engine (lib/engine): pool determinism, heap
   scheduling, fingerprint stability, the SMT verdict cache, and
   whole-engine equivalence across pool widths, the verdict cache and
   the serial checker's rulebook body. *)

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
  { Engine.Job.rule_id = id; priority; prepared = Lazy.force a_prepared }

let test_schedule_priority_order () =
  let jobs =
    [ job ~id:"a" ~priority:1; job ~id:"b" ~priority:9; job ~id:"c" ~priority:4 ]
  in
  Alcotest.(check (list string))
    "most expensive first" [ "b"; "c"; "a" ]
    (List.map (fun (j : Engine.Job.t) -> j.Engine.Job.rule_id)
       (Engine.Job.schedule jobs))

let test_schedule_tie_break () =
  let jobs =
    [ job ~id:"z" ~priority:3; job ~id:"a" ~priority:3; job ~id:"m" ~priority:3 ]
  in
  Alcotest.(check (list string))
    "rule-id tie break" [ "a"; "m"; "z" ]
    (List.map (fun (j : Engine.Job.t) -> j.Engine.Job.rule_id)
       (Engine.Job.schedule jobs))

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

(* a job is named by its rule: the same rule prepared on two parses of
   one version makes the same job *)
let test_job_id_deterministic () =
  let pr = Lazy.force a_prepared in
  let rule = pr.Engine.Checker.prep_rule in
  let again =
    Engine.Checker.prepare
      (Minilang.Parser.program (zk_case.Corpus.Case.source 1))
      rule
  in
  let a = Engine.Job.make pr and b = Engine.Job.make again in
  Alcotest.(check string) "the rule id" rule.Semantics.Rule.rule_id a.Engine.Job.rule_id;
  Alcotest.(check (pair string int)) "same id and priority"
    (a.Engine.Job.rule_id, a.Engine.Job.priority)
    (b.Engine.Job.rule_id, b.Engine.Job.priority)

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

(* run [f] with the SMT verdict cache off *)
let without_memo f =
  Memo.set_enabled false;
  Fun.protect ~finally:(fun () -> Memo.set_enabled true) f

let test_memo_disabled_passthrough () =
  Memo.reset ();
  Alcotest.(check bool) "cache on by default" true (Memo.enabled ());
  without_memo @@ fun () ->
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

(* ------------------------------------------------------------------ *)
(* The scheduler: equivalence across pool widths and the verdict cache *)
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

(* the same slice with the SMT verdict cache off *)
let scan_uncached config = without_memo (fun () -> scan config)

let test_jobs1_equals_jobs4 () =
  let serial, _ = scan_uncached Engine.Scheduler.default_config in
  let parallel, _ =
    scan_uncached { Engine.Scheduler.default_config with Engine.Scheduler.jobs = 4 }
  in
  Alcotest.(check (list string)) "identical reports, jobs=1 vs jobs=4" serial parallel

(* the byte-identity pin at the width the sharded stores target *)
let test_jobs1_equals_jobs8 () =
  let serial, _ = scan_uncached Engine.Scheduler.default_config in
  let parallel, _ =
    scan_uncached { Engine.Scheduler.default_config with Engine.Scheduler.jobs = 8 }
  in
  Alcotest.(check (list string)) "identical reports, jobs=1 vs jobs=8" serial
    parallel;
  let warm, _ =
    scan { Engine.Scheduler.default_config with Engine.Scheduler.jobs = 8 }
  in
  Alcotest.(check (list string)) "identical reports with the verdict cache on"
    serial warm

let test_caches_preserve_reports () =
  let cold, cold_stats = scan_uncached Engine.Scheduler.default_config in
  let cached, cached_stats = scan Engine.Scheduler.default_config in
  Alcotest.(check (list string)) "identical reports, cold vs cached" cold cached;
  Alcotest.(check bool)
    (Printf.sprintf "fewer solver calls cached (%d < %d)"
       cached_stats.Engine.Stats.solver_calls cold_stats.Engine.Stats.solver_calls)
    true
    (cached_stats.Engine.Stats.solver_calls < cold_stats.Engine.Stats.solver_calls);
  Alcotest.(check int) "every rule ran at every version"
    (4 * Semantics.Rulebook.size (Lazy.force zk_book))
    cached_stats.Engine.Stats.jobs_run

let test_parallel_cached_equals_serial_cold () =
  let cold, _ = scan_uncached Engine.Scheduler.default_config in
  let full, _ =
    scan { Engine.Scheduler.default_config with Engine.Scheduler.jobs = 4 }
  in
  Alcotest.(check (list string)) "verdict cache on, jobs=4" cold full

(* nothing survives an enforcement but the statistics: the same
   version enforced twice, or after another version, gives the reports
   of a fresh engine and runs every rule each time *)
let test_stateless_across_calls () =
  Memo.reset ();
  let book = Lazy.force zk_book in
  let version v = Corpus.Registry.program_of Corpus.Registry.builtin "zookeeper" ~version:v in
  let summaries engine v =
    List.map Engine.Checker.report_summary (Engine.Scheduler.enforce engine (version v) book)
  in
  let fresh = summaries (Engine.Scheduler.create ()) 2 in
  let engine = Engine.Scheduler.create () in
  ignore (summaries engine 1);
  let after_v1 = summaries engine 2 in
  let again = summaries engine 2 in
  Memo.reset ();
  Alcotest.(check (list string)) "after v1 = fresh" fresh after_v1;
  Alcotest.(check (list string)) "twice = fresh" fresh again;
  let stats = Engine.Scheduler.stats engine in
  Alcotest.(check int) "every rule ran every time"
    (3 * Semantics.Rulebook.size book)
    stats.Engine.Stats.jobs_run;
  Alcotest.(check (list int)) "reuse counters read 0" [ 0; 0; 0 ]
    [
      stats.Engine.Stats.report_hits;
      stats.Engine.Stats.report_misses;
      stats.Engine.Stats.incremental_reuses;
    ]

(* [Pipeline.enforce] (the serial [Checker.check_book]) and
   [Pipeline.enforce_with] (the engine) share one prepare/execute body:
   their reports agree on every builtin system at v0-v5 and on every
   scan version of the 1x synth corpus, at jobs 1 and 2 *)
let test_enforce_equals_check_book () =
  let agree (registry : Corpus.Registry.t) versions =
    List.iter
      (fun system ->
        let book = Lisa.System_scan.learn_system_book ~registry system in
        List.iter
          (fun v ->
            let p = Corpus.Registry.program_of registry system ~version:v in
            let serial = List.map Engine.Checker.report_summary (Lisa.Pipeline.enforce p book) in
            List.iter
              (fun jobs ->
                let engine =
                  Engine.Scheduler.create
                    ~config:{ Engine.Scheduler.default_config with Engine.Scheduler.jobs }
                    ()
                in
                Alcotest.(check (list string))
                  (Printf.sprintf "%s v%d, jobs=%d" system v jobs)
                  serial
                  (List.map Engine.Checker.report_summary
                     (Lisa.Pipeline.enforce_with engine p book)))
              [ 1; 2 ])
          versions)
      registry.Corpus.Registry.systems
  in
  let builtin = Corpus.Registry.builtin in
  agree builtin (List.init (builtin.Corpus.Registry.max_version + 1) Fun.id);
  let synth = Corpus.Synth.registry ~seed:1 ~scale:1 () in
  agree synth synth.Corpus.Registry.scan_versions

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
  let engine = Engine.Scheduler.create () in
  let p = Corpus.Registry.program_of Corpus.Registry.builtin "zookeeper" ~version:2 in
  without_memo (fun () -> ignore (Engine.Scheduler.enforce engine p book));
  Alcotest.(check (option int)) "one index build" (Some 1)
    (List.assoc_opt "oracle.test_index.builds"
       (Engine.Stats.counters (Engine.Scheduler.stats engine)))

let isolated f () =
  Lisa.Chaos.reset_shared_state ();
  Fun.protect ~finally:Lisa.Chaos.reset_shared_state f

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
      ] );
    ( "engine.fingerprint",
      [
        Alcotest.test_case "stable across reparse" `Quick test_fingerprint_stable_across_reparse;
        Alcotest.test_case "distinguishes versions" `Quick test_fingerprint_distinguishes_versions;
        Alcotest.test_case "job id deterministic" `Quick test_job_id_deterministic;
      ] );
    ( "engine.memo",
      [
        QCheck_alcotest.to_alcotest prop_memo_agrees_with_solver;
        QCheck_alcotest.to_alcotest prop_memo_check_trace_agrees;
        Alcotest.test_case "disabled passthrough" `Quick test_memo_disabled_passthrough;
        Alcotest.test_case "hit counting" `Quick test_memo_hit_counting;
        Alcotest.test_case "shared store across domains" `Quick
          test_memo_shared_across_domains;
        Alcotest.test_case "id-keyed hit on fresh construction" `Quick
          test_memo_id_keyed_hit_on_fresh_construction;
      ] );
    ( "engine.scheduler",
      [
        Alcotest.test_case "jobs=1 == jobs=4" `Quick test_jobs1_equals_jobs4;
        Alcotest.test_case "jobs=1 == jobs=8" `Quick test_jobs1_equals_jobs8;
        Alcotest.test_case "caches preserve reports" `Quick test_caches_preserve_reports;
        Alcotest.test_case "parallel+cached == serial cold" `Quick test_parallel_cached_equals_serial_cold;
        Alcotest.test_case "stateless across calls" `Quick test_stateless_across_calls;
        Alcotest.test_case "enforce == check_book" `Slow
          (isolated test_enforce_equals_check_book);
        Alcotest.test_case "one test index per enforcement" `Quick
          test_one_index_per_enforcement;
      ] );
    ( "engine.chaos",
      [
        Alcotest.test_case "chaos smoke invariants" `Slow
          test_chaos_smoke_invariants;
      ] );
  ]
