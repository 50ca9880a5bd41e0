(* Fault tolerance (lib/resilience + engine wiring): per-slot pool error
   collection, solver node budgets, non-caching of Unknown verdicts,
   deterministic fault plans, circuit breakers, checker degradation,
   engine quarantine determinism, and the bit-for-bit no-fault pin
   against the pre-resilience pipeline. *)

open Smt

(* every test starts and ends on clean global state: injector disarmed
   and rewound, breakers closed, SMT verdict cache empty *)
let isolated f () =
  Lisa.Chaos.reset_shared_state ();
  Fun.protect ~finally:Lisa.Chaos.reset_shared_state f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Pool: per-slot error collection                                     *)
(* ------------------------------------------------------------------ *)

(* comparable projection of a result slot *)
let slot = function
  | Ok v -> "ok:" ^ string_of_int v
  | Error (Failure m) -> "err:" ^ m
  | Error e -> "err:" ^ Printexc.to_string e

let test_pool_collects_every_error () =
  let f x = if x mod 2 = 0 then failwith (Fmt.str "boom%d" x) else x * 10 in
  let items = Array.init 10 (fun i -> i) in
  let serial = Array.map slot (Engine.Pool.map_results ~jobs:1 f items) in
  let parallel = Array.map slot (Engine.Pool.map_results ~jobs:4 f items) in
  Alcotest.(check (array string))
    "every failed slot keeps its own error, at any pool width" serial parallel;
  Alcotest.(check string) "slot 4 error" "err:boom4" serial.(4);
  Alcotest.(check string) "slot 7 value" "ok:70" serial.(7);
  Alcotest.(check int) "five failures collected" 5
    (List.length (Engine.Pool.failures (Engine.Pool.map_results ~jobs:4 f items)))

let test_pool_crash_mid_drain () =
  (* one worker dies mid-drain: the other slots still all compute *)
  let f x = if x = 25 then failwith "crash" else x in
  let results =
    Engine.Pool.map_results ~jobs:4 f (Array.init 50 (fun i -> i))
  in
  let oks = Array.to_list results |> List.filter Result.is_ok in
  Alcotest.(check int) "49 slots survive the crash" 49 (List.length oks);
  (match Engine.Pool.failures results with
  | [ (25, Failure m) ] -> Alcotest.(check string) "error text" "crash" m
  | fs -> Alcotest.fail (Fmt.str "expected slot 25 only, got %d" (List.length fs)))

let test_pool_map_raises_first_by_index () =
  (* the raising wrapper stays deterministic: first error by input slot,
     not by completion order *)
  let f x = if x = 3 || x = 7 then failwith (Fmt.str "err%d" x) else x in
  List.iter
    (fun jobs ->
      match Engine.Pool.map ~jobs f (Array.init 10 (fun i -> i)) with
      | exception Failure m ->
          Alcotest.(check string) (Fmt.str "jobs=%d" jobs) "err3" m
      | _ -> Alcotest.fail "expected the first error")
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Solver: node budget and Unknown                                     *)
(* ------------------------------------------------------------------ *)

(* two independent atoms: satisfiable, but the search needs several
   nodes, so a tiny budget must answer Unknown instead *)
let two_atom_f =
  Formula.conj
    [
      Formula.eq (Formula.tvar "bx") (Formula.tint 1);
      Formula.eq (Formula.tvar "by") (Formula.tint 2);
    ]

let test_solver_budget_unknown () =
  (match Solver.solve ~node_budget:1 two_atom_f with
  | Solver.Unknown reason ->
      Alcotest.(check bool) "reason names the budget" true
        (contains reason "budget")
  | Solver.Sat _ | Solver.Unsat -> Alcotest.fail "budget 1 must not decide");
  match Solver.solve two_atom_f with
  | Solver.Sat _ -> ()
  | Solver.Unsat | Solver.Unknown _ ->
      Alcotest.fail "default budget must decide Sat"

let test_solver_budget_boundary () =
  (* probe the minimal deciding budget k: k-1 must answer Unknown *)
  let decided b =
    match Solver.solve ~node_budget:b two_atom_f with
    | Solver.Sat _ | Solver.Unsat -> true
    | Solver.Unknown _ -> false
  in
  let rec minimal b =
    if b > 10_000 then Alcotest.fail "no deciding budget under 10k nodes"
    else if decided b then b
    else minimal (b + 1)
  in
  let k = minimal 1 in
  Alcotest.(check bool) "search needs more than one node" true (k > 1);
  Alcotest.(check bool) "k-1 is Unknown" false (decided (k - 1));
  Alcotest.(check bool) "k decides" true (decided k)

let test_unknown_is_not_unsat () =
  (* Unknown must be conservative: neither sat nor unsat *)
  Lisa.Chaos.reset_shared_state ();
  Resilience.Injector.arm
    (Resilience.Plan.make ~points:[ Resilience.Fault.Solver ]
       ~kinds:[ Resilience.Fault.Budget ] ~seed:7 ~rate:1.0 ());
  Alcotest.(check bool) "not unsat under injection" false
    (Solver.is_unsat Formula.fls);
  Alcotest.(check bool) "not sat under injection" false (Solver.is_sat Formula.tru)

let test_memo_never_caches_unknown () =
  let was = Memo.enabled () in
  Fun.protect ~finally:(fun () -> Memo.set_enabled was) @@ fun () ->
  Memo.set_enabled true;
  Memo.reset ();
  Resilience.Injector.arm
    (Resilience.Plan.make ~points:[ Resilience.Fault.Solver ]
       ~kinds:[ Resilience.Fault.Budget ] ~seed:7 ~rate:1.0 ());
  (match Memo.solve two_atom_f with
  | Solver.Unknown _ -> ()
  | _ -> Alcotest.fail "rate-1.0 budget plan must yield Unknown");
  Alcotest.(check int) "Unknown not stored" 0 (Memo.size ());
  Resilience.Injector.disarm ();
  (match Memo.solve two_atom_f with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "healthy solver decides Sat");
  Alcotest.(check int) "real verdict stored" 1 (Memo.size ())

let test_theory_memo_halving () =
  let size0 = Solver.theory_memo_size () in
  Solver.set_theory_memo_max 8;
  Fun.protect ~finally:(fun () -> Solver.set_theory_memo_max (1 lsl 16))
  @@ fun () ->
  (* distinct variable pairs populate distinct theory-memo entries *)
  for i = 0 to 63 do
    ignore
      (Solver.solve
         (Formula.conj
            [
              Formula.eq (Formula.tvar (Fmt.str "tm_a%d" i)) (Formula.tint 1);
              Formula.eq (Formula.tvar (Fmt.str "tm_b%d" i)) (Formula.tint 2);
            ]))
  done;
  let size = Solver.theory_memo_size () in
  Alcotest.(check bool)
    (Fmt.str "size %d stays bounded by the max" size)
    true (size <= 8);
  (* halving keeps half the entries instead of clearing wholesale *)
  Alcotest.(check bool)
    (Fmt.str "size %d retains at least half the bound (started at %d)" size size0)
    true
    (size >= 4)

(* ------------------------------------------------------------------ *)
(* Plans, injector, breaker                                            *)
(* ------------------------------------------------------------------ *)

let draw_sequence plan point n =
  List.init n (fun i -> Resilience.Plan.decide plan point i)

let test_plan_deterministic () =
  let mk () = Resilience.Plan.make ~seed:42 ~rate:0.3 () in
  List.iter
    (fun point ->
      Alcotest.(check bool)
        "same seed, same fault sequence" true
        (draw_sequence (mk ()) point 100 = draw_sequence (mk ()) point 100))
    Resilience.Fault.all_points;
  let other = Resilience.Plan.make ~seed:43 ~rate:0.3 () in
  Alcotest.(check bool)
    "different seed, different sequence" false
    (List.for_all
       (fun point ->
         draw_sequence (mk ()) point 100 = draw_sequence other point 100)
       Resilience.Fault.all_points)

let test_injector_replays_after_reset () =
  let plan = Resilience.Plan.make ~seed:11 ~rate:0.5 () in
  Resilience.Injector.arm plan;
  let seq () =
    List.init 20 (fun _ -> Resilience.Injector.draw Resilience.Fault.Solver)
  in
  let first = seq () in
  Resilience.Injector.reset ();
  let second = seq () in
  Alcotest.(check bool) "reset rewinds the counters" true (first = second);
  Alcotest.(check bool) "rate 0.5 fires something in 20 draws" true
    (List.exists Option.is_some first)

let test_breaker_opens_and_recovers () =
  let point = Resilience.Fault.Oracle in
  Resilience.Breaker.configure ~threshold:3 ~cooldown:2 ();
  Fun.protect
    ~finally:(fun () -> Resilience.Breaker.configure ~threshold:5 ~cooldown:20 ())
  @@ fun () ->
  Alcotest.(check bool) "starts closed" true (Resilience.Breaker.proceed point);
  for _ = 1 to 3 do
    Resilience.Breaker.failure point
  done;
  Alcotest.(check bool) "open after threshold" true (Resilience.Breaker.is_open point);
  Alcotest.(check bool) "cooldown call 1 skipped" false (Resilience.Breaker.proceed point);
  Alcotest.(check bool) "cooldown call 2 skipped" false (Resilience.Breaker.proceed point);
  Alcotest.(check bool) "half-open probe allowed" true (Resilience.Breaker.proceed point);
  Resilience.Breaker.success point;
  Alcotest.(check bool) "probe success closes" false (Resilience.Breaker.is_open point);
  Alcotest.(check int) "one trip recorded" 1 (Resilience.Breaker.trips point)

(* ------------------------------------------------------------------ *)
(* Checker degradation and engine quarantine                           *)
(* ------------------------------------------------------------------ *)

let zk_case () =
  match Corpus.Registry.find Corpus.Registry.builtin "zk-ephemeral" with
  | Some c -> c
  | None -> Alcotest.fail "zk-ephemeral case missing"

let learn_zk () =
  let outcome = Lisa.Pipeline.learn (Corpus.Case.original_ticket (zk_case ())) in
  match outcome.Lisa.Pipeline.accepted with
  | [] -> Alcotest.fail "learning must accept a rule"
  | rules -> rules

let test_checker_degrades_under_solver_budget () =
  let rules = learn_zk () in
  let p = Corpus.Case.program_at (zk_case ()) 2 in
  let prepared = List.map (Engine.Checker.prepare p) rules in
  Lisa.Chaos.reset_shared_state ();
  Resilience.Injector.arm
    (Resilience.Plan.make ~points:[ Resilience.Fault.Solver ]
       ~kinds:[ Resilience.Fault.Budget ] ~seed:3 ~rate:1.0 ());
  let reports = List.map (Engine.Checker.execute p) prepared in
  List.iter
    (fun (r : Engine.Checker.rule_report) ->
      Alcotest.(check bool) "report is degraded" true (Engine.Checker.is_degraded r);
      Alcotest.(check bool) "undecided traces recorded" true
        (r.Engine.Checker.rep_undecided <> []);
      Alcotest.(check int) "no violations invented" 0
        (List.length r.Engine.Checker.rep_violations);
      Alcotest.(check bool) "summary surfaces the degradation" true
        (contains (Engine.Checker.report_summary r) "degraded="))
    reports

(* a genuine (not injected) fuel exhaustion loses evidence: the report
   is degraded, with the run's reason on record *)
let test_checker_degrades_out_of_fuel () =
  let rules = learn_zk () in
  let p = Corpus.Case.program_at (zk_case ()) 2 in
  Lisa.Chaos.reset_shared_state ();
  let config = { Engine.Checker.default_config with fuel = 3 } in
  let r = Engine.Checker.check_rule ~config p (List.hd rules) in
  match r.Engine.Checker.rep_tests_run with
  | [] -> Alcotest.fail "the rule must drive tests"
  | entry :: _ ->
      Alcotest.(check bool) "report is degraded" true (Engine.Checker.is_degraded r);
      Alcotest.(check (option string))
        "first reason" (Some (Fmt.str "concolic %s: out of fuel" entry))
        (List.nth_opt r.Engine.Checker.rep_degraded 0);
      Alcotest.(check int) "no violations invented" 0
        (List.length r.Engine.Checker.rep_violations)

let quarantine_run rules =
  Lisa.Chaos.reset_shared_state ();
  Resilience.Injector.arm
    (Resilience.Plan.make ~points:[ Resilience.Fault.Concolic ]
       ~kinds:[ Resilience.Fault.Crash ] ~seed:5 ~rate:1.0 ());
  let engine =
    Engine.Scheduler.create
      ~config:
        { Engine.Scheduler.default_config with jobs = 1; retry_backoff_ms = 0 }
      ()
  in
  let book = Semantics.Rulebook.of_rules ~system:"zookeeper" rules in
  let reports =
    Engine.Scheduler.enforce engine (Corpus.Case.program_at (zk_case ()) 2) book
  in
  let stats = Engine.Scheduler.stats engine in
  ( List.sort compare stats.Engine.Stats.quarantined,
    stats.Engine.Stats.retries,
    List.map Engine.Checker.report_summary reports )

let test_engine_quarantine_deterministic () =
  let rules = learn_zk () in
  let q1, r1, s1 = quarantine_run rules in
  let q2, r2, s2 = quarantine_run rules in
  Alcotest.(check bool) "a rate-1.0 crash plan quarantines" true (q1 <> []);
  Alcotest.(check (list string)) "quarantine set replays" q1 q2;
  Alcotest.(check int) "retry count replays" r1 r2;
  Alcotest.(check (list string)) "summaries replay" s1 s2;
  List.iter
    (fun s ->
      Alcotest.(check bool) "quarantined summary is degraded" true
        (contains s "degraded="))
    s1

let test_quarantined_report_shape () =
  let rule = List.hd (learn_zk ()) in
  let r = Engine.Checker.quarantined_report rule ~reason:"worker crashed" in
  Alcotest.(check bool) "degraded" true (Engine.Checker.is_degraded r);
  Alcotest.(check bool) "never reads verified" false r.Engine.Checker.rep_sanity_ok;
  Alcotest.(check bool) "carries no violations" false (Engine.Checker.has_violations r)

(* ------------------------------------------------------------------ *)
(* No-fault bit-for-bit pin                                            *)
(* ------------------------------------------------------------------ *)

(* Captured from the pre-resilience pipeline (PR base commit):
   `lisa report zk-ephemeral --stage 2` and the corresponding
   report_summary line.  With no plan armed, today's pipeline must
   reproduce both byte for byte. *)
let pinned_summary =
  "ZK-1208.g41.gen: targets=2 static_paths=7 tests=8 traces=6 verified=5 \
   violations=1 uncovered=0 lock_findings=0 sanity=true"

let pinned_report =
  String.concat "\n"
    [
      "# zk-ephemeral stage 2";
      "";
      "**BLOCK** — 1 of 1 rule(s) violated: `ZK-1208.g41.gen`.";
      "";
      "## Rule ZK-1208.g41.gen";
      "";
      "> no execution may reach [calls createEphemeralNode (any method)] \
       unless (Session != null && Session.closing != true)";
      "> protects: No client may create an ephemeral node while its session \
       is in the CLOSING state. (learned from ZK-1208)";
      "";
      "- contract: `[ZK-1208.g41.gen] <(Session != null && Session.closing \
       != true)> calls createEphemeralNode (any method) <>`";
      "- targets: 2, static paths: 7, tests run: 8";
      "- traces: 6 (5 verified, 1 violations); sanity ok";
      "";
      "- **VIOLATION** — `LearnerRequestProcessor.forwardCreate` (driven by \
       `test_eph_learner_forward_create`); the path admits `Session.closing \
       == true && null != Session`";
      "- VERIFIED — `PrepRequestProcessor.pRequest2TxnCreate` (driven by \
       `test_eph_close_removes_nodes`); path condition `(Session != null && \
       Session.closing == false)`";
      "- VERIFIED — `PrepRequestProcessor.pRequest2TxnCreate` (driven by \
       `test_eph_create_on_live_session`); path condition `(Session != null \
       && Session.closing == false)`";
      "- VERIFIED — `PrepRequestProcessor.pRequest2TxnCreate` (driven by \
       `test_eph_owner_lookup`); path condition `(Session != null && \
       Session.closing == false)`";
      "- VERIFIED — `PrepRequestProcessor.pRequest2TxnCreate` (driven by \
       `test_eph_counts_per_session`); path condition `(Session != null && \
       Session.closing == false)`";
      "- VERIFIED — `PrepRequestProcessor.pRequest2TxnCreate` (driven by \
       `test_eph_counts_per_session`); path condition `(Session != null && \
       Session.closing == false)`";
    ]

let test_no_fault_bit_for_bit () =
  let rules = learn_zk () in
  let book = Semantics.Rulebook.of_rules ~system:"zookeeper" rules in
  let reports = Lisa.Pipeline.enforce (Corpus.Case.program_at (zk_case ()) 2) book in
  Alcotest.(check string)
    "report_summary pinned" pinned_summary
    (Engine.Checker.report_summary (List.hd reports));
  Alcotest.(check string)
    "rendered Markdown pinned" pinned_report
    (Lisa.Report.render ~title:"zk-ephemeral stage 2" reports)

(* ------------------------------------------------------------------ *)
(* Events / logging                                                    *)
(* ------------------------------------------------------------------ *)

let test_event_sink_capture () =
  let seen = ref [] in
  Resilience.Events.set_sink (fun e -> seen := e :: !seen);
  Fun.protect ~finally:Lisa.Log.install_resilience_sink @@ fun () ->
  Resilience.Events.emit
    (Resilience.Events.Job_quarantined
       { job = "r1"; attempts = 3; reason = "boom" });
  match !seen with
  | [ (Resilience.Events.Job_quarantined _ as e) ] ->
      Alcotest.(check bool) "quarantine is an error" true
        (Resilience.Events.severity e = Resilience.Events.Error);
      Alcotest.(check bool) "rendering names the job" true
        (contains (Resilience.Events.to_string e) "r1")
  | _ -> Alcotest.fail "sink did not capture the event"

let test_log_err_smoke () =
  (* Log.err must format and not raise, reporter or not *)
  Lisa.Log.err "resilience smoke %d %s" 42 "ok";
  Alcotest.(check pass) "err emits" () ()

(* [set_sink] is an Atomic swap: a domain emitting full-tilt while the
   main domain keeps swapping sinks must never crash, and every event
   must reach exactly one of the installed sinks. *)
let test_set_sink_two_domain_smoke () =
  let delivered = Atomic.make 0 in
  let sink _ = Atomic.incr delivered in
  Resilience.Events.set_sink sink;
  Fun.protect ~finally:Lisa.Log.install_resilience_sink @@ fun () ->
  let n = 1000 in
  let emitter =
    Domain.spawn (fun () ->
        for _ = 1 to n do
          Resilience.Events.emit
            (Resilience.Events.Component_degraded
               { component = "smoke"; reason = "two-domain sink test" })
        done)
  in
  (* churn the sink from the main domain while the emitter runs; every
     candidate sink counts into the same atomic *)
  for _ = 1 to 100 do
    Resilience.Events.set_sink sink
  done;
  Domain.join emitter;
  Alcotest.(check int) "every event hit a sink" n (Atomic.get delivered)

let suite =
  [
    ( "resilience.pool",
      [
        Alcotest.test_case "collects every error per slot" `Quick
          (isolated test_pool_collects_every_error);
        Alcotest.test_case "worker crash mid-drain" `Quick
          (isolated test_pool_crash_mid_drain);
        Alcotest.test_case "map raises first by index" `Quick
          (isolated test_pool_map_raises_first_by_index);
      ] );
    ( "resilience.solver",
      [
        Alcotest.test_case "tiny budget answers Unknown" `Quick
          (isolated test_solver_budget_unknown);
        Alcotest.test_case "budget boundary" `Quick
          (isolated test_solver_budget_boundary);
        Alcotest.test_case "Unknown is conservative" `Quick
          (isolated test_unknown_is_not_unsat);
        Alcotest.test_case "memo never caches Unknown" `Quick
          (isolated test_memo_never_caches_unknown);
        Alcotest.test_case "theory memo halves, not clears" `Quick
          (isolated test_theory_memo_halving);
      ] );
    ( "resilience.injection",
      [
        Alcotest.test_case "plan deterministic per seed" `Quick
          (isolated test_plan_deterministic);
        Alcotest.test_case "injector replays after reset" `Quick
          (isolated test_injector_replays_after_reset);
        Alcotest.test_case "breaker opens and recovers" `Quick
          (isolated test_breaker_opens_and_recovers);
      ] );
    ( "resilience.engine",
      [
        Alcotest.test_case "checker degrades under solver faults" `Quick
          (isolated test_checker_degrades_under_solver_budget);
        Alcotest.test_case "checker degrades out of fuel" `Quick
          test_checker_degrades_out_of_fuel;
        Alcotest.test_case "quarantine deterministic" `Quick
          (isolated test_engine_quarantine_deterministic);
        Alcotest.test_case "quarantined report shape" `Quick
          (isolated test_quarantined_report_shape);
        Alcotest.test_case "no-fault run bit-for-bit pinned" `Quick
          (isolated test_no_fault_bit_for_bit);
      ] );
    ( "resilience.events",
      [
        Alcotest.test_case "sink capture and severity" `Quick
          (isolated test_event_sink_capture);
        Alcotest.test_case "Log.err smoke" `Quick (isolated test_log_err_smoke);
        Alcotest.test_case "set_sink two-domain smoke" `Quick
          (isolated test_set_sink_two_domain_smoke);
      ] );
  ]
