(* Fault tolerance where failure is real (lib/resilience + engine
   wiring): per-slot pool error collection, solver node budgets and the
   fast path's budget asymmetry, non-caching of Unknown verdicts,
   checker degradation under fuel and node budgets, evidence loss that
   stays local to its rule and independent of the schedule, quarantine,
   and the bit-for-bit pin against the pre-resilience pipeline. *)

open Smt

(* every test starts and ends on clean global state: stock solver node
   budget, SMT verdict cache empty *)
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
  let failures = List.filter (String.starts_with ~prefix:"err:") (Array.to_list parallel) in
  Alcotest.(check int) "five failures collected" 5 (List.length failures)

let test_pool_crash_mid_drain () =
  (* one worker dies mid-drain: the other slots still all compute *)
  let f x = if x = 25 then failwith "crash" else x in
  let results =
    Engine.Pool.map_results ~jobs:4 f (Array.init 50 (fun i -> i))
  in
  let oks = Array.to_list results |> List.filter Result.is_ok in
  Alcotest.(check int) "49 slots survive the crash" 49 (List.length oks);
  match results.(25) with
  | Error (Failure m) -> Alcotest.(check string) "error text" "crash" m
  | _ -> Alcotest.fail "expected the crash in slot 25"

let test_pool_first_error_by_index () =
  (* the first failed slot is the first by input index, not by
     completion order: the same one at any pool width *)
  let f x = if x = 3 || x = 7 then failwith (Fmt.str "err%d" x) else x in
  List.iter
    (fun jobs ->
      let results = Engine.Pool.map_results ~jobs f (Array.init 10 (fun i -> i)) in
      match List.find_opt Result.is_error (Array.to_list results) with
      | Some (Error (Failure m)) ->
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
  Solver.set_default_node_budget 1;
  Alcotest.(check bool) "not unsat past the budget" false (Solver.is_unsat two_atom_f);
  Alcotest.(check bool) "not sat past the budget" false (Solver.is_sat two_atom_f);
  Lisa.Chaos.reset_shared_state ();
  Alcotest.(check bool) "sat at the stock budget" true (Solver.is_sat two_atom_f)

(* DESIGN §7: every verdict is a search, so every verdict spends node
   budget — even a formula a single theory check refutes is Unknown at
   budget 1, and Unsat at the stock budget *)
let test_every_verdict_spends_budget () =
  let x = Formula.tvar "fx" in
  let interval =
    Formula.conj [ Formula.eq x (Formula.tint 1); Formula.eq x (Formula.tint 2) ]
  in
  let a = Formula.bvar "fa" and b = Formula.bvar "fb" in
  let clausal =
    Formula.conj [ Formula.disj [ a; b ]; Formula.negate a; Formula.negate b ]
  in
  let answer ?node_budget f =
    match Solver.solve ?node_budget f with
    | Solver.Sat _ -> "sat"
    | Solver.Unsat -> "unsat"
    | Solver.Unknown _ -> "unknown"
  in
  List.iter
    (fun (name, f) ->
      Alcotest.(check string) (name ^ ", node budget 1") "unknown"
        (answer ~node_budget:1 f);
      Alcotest.(check string) (name ^ ", default budget") "unsat" (answer f))
    [ ("fx = 1 && fx = 2", interval); ("(fa || fb) && !fa && !fb", clausal) ]

let test_memo_never_caches_unknown () =
  let was = Memo.enabled () in
  Fun.protect ~finally:(fun () -> Memo.set_enabled was) @@ fun () ->
  Memo.set_enabled true;
  Memo.reset ();
  Solver.set_default_node_budget 1;
  (match Memo.solve two_atom_f with
  | Solver.Unknown _ -> ()
  | _ -> Alcotest.fail "node budget 1 must yield Unknown");
  Alcotest.(check int) "Unknown not stored" 0 (Memo.size ());
  Lisa.Chaos.reset_shared_state ();
  (match Memo.solve two_atom_f with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "healthy solver decides Sat");
  Alcotest.(check int) "real verdict stored" 1 (Memo.size ())

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
  Solver.set_default_node_budget 1;
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

(* No hand-built rule makes [Checker.execute] raise: ill-sorted
   conditions, empty or dotted variables and unresolvable targets all
   answer a report.  So quarantine is pinned on the scheduler's two
   parts: the pool keeps each raised exception in its job's slot, and
   the slot becomes a quarantined report with [Printexc.to_string e] as
   its reason, identically at every pool width. *)
let quarantine_run rules ~jobs =
  let rules = Array.of_list rules in
  let results =
    Engine.Pool.map_results ~jobs
      (fun i -> if i mod 2 = 0 then failwith (Fmt.str "job %d crashed" i) else i)
      (Array.init (Array.length rules) (fun i -> i))
  in
  Array.to_list results
  |> List.mapi (fun i result ->
         match result with
         | Ok _ -> []
         | Error e ->
             let r =
               Engine.Checker.quarantined_report rules.(i) ~reason:(Printexc.to_string e)
             in
             r.Engine.Checker.rep_degraded)

let test_engine_quarantine_deterministic () =
  let zk = List.hd (learn_zk ()) in
  let rules = [ zk; zk; zk ] in
  let serial = quarantine_run rules ~jobs:1 in
  Alcotest.(check (list (list string)))
    "each raising job is quarantined at once, with its exception"
    [
      [ "quarantined: Failure(\"job 0 crashed\")" ];
      [];
      [ "quarantined: Failure(\"job 2 crashed\")" ];
    ]
    serial;
  Alcotest.(check (list (list string)))
    "identical at jobs=4" serial (quarantine_run rules ~jobs:4)

let test_quarantined_report_shape () =
  let rule = List.hd (learn_zk ()) in
  let r = Engine.Checker.quarantined_report rule ~reason:"worker crashed" in
  Alcotest.(check bool) "degraded" true (Engine.Checker.is_degraded r);
  Alcotest.(check bool) "never reads verified" false r.Engine.Checker.rep_sanity_ok;
  Alcotest.(check bool) "carries no violations" false (Engine.Checker.has_violations r)

(* ------------------------------------------------------------------ *)
(* Evidence loss stays local                                           *)
(* ------------------------------------------------------------------ *)

let zk_system_book = lazy (Lisa.System_scan.learn_system_book "zookeeper")

let system_rule id =
  match
    List.find_opt
      (fun (r : Semantics.Rule.t) -> r.Semantics.Rule.rule_id = id)
      (Semantics.Rulebook.rules (Lazy.force zk_system_book))
  with
  | Some r -> r
  | None -> Alcotest.failf "zookeeper book has no rule %s" id

(* one rule's fuel-outs cost only that rule's evidence: the other guard
   rules checked right after it judge every trace they would have
   judged on a fresh process *)
let test_fuel_out_stays_local () =
  let p = Corpus.Registry.program_of Corpus.Registry.builtin "zookeeper" ~version:2 in
  let starved =
    Engine.Checker.check_rule
      ~config:{ Engine.Checker.default_config with fuel = 3 }
      p (system_rule "ZK-1208.g41.gen")
  in
  Alcotest.(check bool) "the starved rule is degraded" true
    (Engine.Checker.is_degraded starved);
  let judged id =
    let r = Engine.Checker.check_rule p (system_rule id) in
    ( id,
      List.length r.Engine.Checker.rep_traces,
      List.length r.Engine.Checker.rep_violations )
  in
  Alcotest.(check (list (triple string int int)))
    "(rule, traces judged, violations)"
    [ ("ZK-2471.g5.gen", 5, 2); ("ZK-2593.g3.gen", 4, 1); ("ZK-2722.g5.gen", 5, 1) ]
    (List.map judged [ "ZK-2471.g5.gen"; "ZK-2593.g3.gen"; "ZK-2722.g5.gen" ])

(* lost evidence depends on the budgets, never on the schedule: the
   builtin E11 render at fuel 3 (rules learned at stock fuel) *)
let test_starved_scan_same_at_every_width () =
  let reg = Corpus.Registry.builtin in
  let books =
    List.map
      (fun s -> (s, Lisa.System_scan.learn_system_book s))
      reg.Corpus.Registry.systems
  in
  let render jobs =
    Lisa.Chaos.reset_shared_state ();
    let checker = { Engine.Checker.default_config with fuel = 3 } in
    let engine =
      Engine.Scheduler.create
        ~config:{ Engine.Scheduler.jobs; checker }
        ()
    in
    String.concat "\n"
      (List.concat_map
         (fun (system, book) ->
           List.map
             (fun version ->
               let p = Corpus.Registry.program_of reg system ~version in
               Lisa.Report.render
                 ~title:(Fmt.str "%s v%d" system version)
                 (Lisa.Pipeline.enforce_with engine p book))
             reg.Corpus.Registry.scan_versions)
         books)
  in
  let serial = render 1 in
  Alcotest.(check bool) "fuel 3 loses evidence" true (contains serial "DEGRADED");
  Alcotest.(check string) "jobs=2" serial (render 2);
  Alcotest.(check string) "jobs=4" serial (render 4)

(* the scan runs the engine it is given, checker included: an explicit
   fuel-3 engine loses evidence, while the default engine inherits the
   stock pipeline checker and loses none *)
let test_scan_honours_engine_checker () =
  let rows engine_config =
    Lisa.Chaos.reset_shared_state ();
    Lisa.System_scan.print (fst (Lisa.System_scan.run_engine ?engine_config ()))
  in
  let checker = { Engine.Checker.default_config with fuel = 3 } in
  Alcotest.(check bool) "fuel 3 renders [degraded: ...] rows" true
    (contains
       (rows (Some { Engine.Scheduler.default_config with checker }))
       "[degraded: ");
  Alcotest.(check bool) "the default engine renders none" false
    (contains (rows None) "[degraded: ")

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
    (Resilience.Events.Job_quarantined { job = "r1"; reason = "boom" });
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
        Alcotest.test_case "first error by index" `Quick
          (isolated test_pool_first_error_by_index);
      ] );
    ( "resilience.solver",
      [
        Alcotest.test_case "tiny budget answers Unknown" `Quick
          (isolated test_solver_budget_unknown);
        Alcotest.test_case "budget boundary" `Quick
          (isolated test_solver_budget_boundary);
        Alcotest.test_case "Unknown is conservative" `Quick
          (isolated test_unknown_is_not_unsat);
        Alcotest.test_case "every verdict spends budget" `Quick
          (isolated test_every_verdict_spends_budget);
        Alcotest.test_case "memo never caches Unknown" `Quick
          (isolated test_memo_never_caches_unknown);
      ] );
    ( "resilience.engine",
      [
        Alcotest.test_case "checker degrades under solver budget" `Quick
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
    ( "resilience.locality",
      [
        Alcotest.test_case "fuel-out stays in its rule" `Quick
          (isolated test_fuel_out_stays_local);
        Alcotest.test_case "fuel 3 scan, jobs 1 = 2 = 4" `Quick
          (isolated test_starved_scan_same_at_every_width);
        Alcotest.test_case "scan honours engine_config's checker" `Quick
          (isolated test_scan_honours_engine_checker);
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
