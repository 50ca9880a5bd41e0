(* lib/telemetry: clock injection, metrics, tracing, lazy events — and
   the cross-layer property the layer exists for: a scheduler run under
   the mock clock has bit-for-bit deterministic per-job wall times,
   regardless of pool width. *)

module Clock = Telemetry.Clock
module Metrics = Telemetry.Metrics
module Trace = Telemetry.Trace
module Event = Telemetry.Event

(* every test leaves the tracer off and empty, whatever happens *)
let with_tracing f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_mock_clock_ticks () =
  Clock.with_clock (Clock.mock ~step:0.5 ()) (fun () ->
      Alcotest.(check bool) "mock installed" true (Clock.is_mock ());
      let a = Clock.now () in
      let b = Clock.now () in
      Alcotest.(check (float 1e-9)) "first tick" 0.5 a;
      Alcotest.(check (float 1e-9)) "second tick" 1.0 b);
  Alcotest.(check bool) "real clock restored" false (Clock.is_mock ())

let test_mock_clock_per_domain () =
  Clock.with_clock (Clock.mock ~step:1.0 ()) (fun () ->
      ignore (Clock.now ());
      ignore (Clock.now ());
      (* a fresh domain starts its own tick counter at zero *)
      let d = Domain.spawn (fun () -> Clock.now ()) in
      Alcotest.(check (float 1e-9)) "spawned domain ticks from 0" 1.0
        (Domain.join d);
      Alcotest.(check (float 1e-9)) "main domain unaffected" 3.0 (Clock.now ()))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let t_count = Metrics.counter "test.telemetry.count" ~doc:"test-only counter"

let t_gauge_cell = ref 7

let () =
  Metrics.gauge "test.telemetry.gauge" ~doc:"test-only gauge" (fun () ->
      !t_gauge_cell)

let sampled name =
  let values = Metrics.sample () in
  List.assoc name (List.mapi (fun i (n, _) -> (n, values.(i))) (Metrics.declared ()))

let test_metrics_counters () =
  Metrics.reset t_count;
  Metrics.bump t_count;
  Metrics.bump ~by:4 t_count;
  Alcotest.(check int) "counter value" 5 (Metrics.value t_count);
  Alcotest.(check int) "sample carries the counter" 5 (sampled "test.telemetry.count");
  t_gauge_cell := 11;
  Alcotest.(check int) "a gauge is read at sample time" 11
    (sampled "test.telemetry.gauge");
  Alcotest.(check bool) "declared with its doc" true
    (List.mem ("test.telemetry.gauge", "test-only gauge") (Metrics.declared ()));
  Metrics.reset t_count;
  Alcotest.(check int) "reset zeroes" 0 (Metrics.value t_count)

let test_metrics_duplicate_name () =
  Alcotest.check_raises "a counter name is declared once"
    (Invalid_argument "Metrics: metric test.telemetry.count declared twice")
    (fun () -> ignore (Metrics.counter "test.telemetry.count" ~doc:"again"));
  Alcotest.check_raises "gauges share the namespace"
    (Invalid_argument "Metrics: metric smt.memo.hits declared twice") (fun () ->
      Metrics.gauge "smt.memo.hits" ~doc:"again" (fun () -> 0))

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_disabled_span_is_passthrough () =
  Trace.reset ();
  Alcotest.(check bool) "tracing off by default" false (Trace.enabled ());
  let r = Trace.with_span "off.span" (fun () -> 42) in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (Trace.event_count ())

let test_span_nesting () =
  with_tracing (fun () ->
      let v =
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner" (fun () -> "ok"))
      in
      Alcotest.(check string) "result" "ok" v;
      match Trace.spans () with
      | [ inner; outer ] ->
          (* completion order: inner closes first *)
          Alcotest.(check string) "inner name" "inner" inner.Trace.sp_name;
          Alcotest.(check string) "outer name" "outer" outer.Trace.sp_name;
          Alcotest.(check int) "ids allocated in begin order" 1
            outer.Trace.sp_id;
          Alcotest.(check int) "inner id" 2 inner.Trace.sp_id;
          Alcotest.(check (option int)) "inner parented to outer" (Some 1)
            inner.Trace.sp_parent;
          Alcotest.(check (option int)) "outer is a root" None
            outer.Trace.sp_parent
      | spans ->
          Alcotest.failf "expected 2 spans, got %d" (List.length spans))

let test_span_recorded_on_raise () =
  with_tracing (fun () ->
      (try Trace.with_span "raises" (fun () -> failwith "boom")
       with Failure _ -> ());
      match Trace.spans () with
      | [ s ] -> Alcotest.(check string) "span closed" "raises" s.Trace.sp_name
      | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans))

let test_export_json_valid () =
  with_tracing (fun () ->
      Clock.with_clock (Clock.mock ()) (fun () ->
          Trace.with_span ~args:[ ("rule", "r1") ] "outer" (fun () ->
              Trace.instant ~cat:"event" ~args:[ ("severity", "warn") ] "note";
              Trace.with_span "inner" ignore);
          Trace.counter "cache" [ ("hits", 3.); ("misses", 1.5) ]);
      let json = Trace.export_json () in
      (match Serve.Jsonu.parse json with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "invalid JSON: %s" e);
      let has s = Astring_contains.contains json s in
      Alcotest.(check bool) "complete spans" true (has "\"ph\":\"X\"");
      Alcotest.(check bool) "instant event" true (has "\"ph\":\"i\"");
      Alcotest.(check bool) "counter event" true (has "\"ph\":\"C\"");
      Alcotest.(check bool) "parent link exported" true (has "\"parent_id\":\"1\"");
      Alcotest.(check bool) "span arg exported" true (has "\"rule\":\"r1\"");
      Alcotest.(check bool) "numeric counter value" true (has "\"misses\":1.5"))

let test_export_json_escaping () =
  with_tracing (fun () ->
      Trace.instant ~args:[ ("message", "a \"quoted\"\nline\ttab\\") ] "esc";
      match Serve.Jsonu.parse (Trace.export_json ()) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "escaping broke the JSON: %s" e)

let test_summary_aggregates () =
  with_tracing (fun () ->
      Clock.with_clock (Clock.mock ()) (fun () ->
          Trace.with_span "stage.a" ignore;
          Trace.with_span "stage.a" ignore;
          Trace.with_span "stage.b" ignore);
      let s = Trace.summary () in
      Alcotest.(check bool) "has stage.a row" true
        (Astring_contains.contains s "stage.a");
      Alcotest.(check bool) "has stage.b row" true
        (Astring_contains.contains s "stage.b"))

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let test_event_thunk_lazy () =
  let scope = Event.scope "telemetry-test" in
  let forced = ref 0 in
  let thunk () =
    incr forced;
    "message"
  in
  (* default Logs level is Warning: a Debug event goes nowhere *)
  Event.emit scope Event.Debug thunk;
  Alcotest.(check int) "suppressed event never formats" 0 !forced;
  (* an Error event is admitted by the default level *)
  Event.emit scope Event.Error thunk;
  Alcotest.(check int) "admitted event formats once" 1 !forced

let test_event_sink_captures () =
  let scope = Event.scope "telemetry-test" in
  let seen = ref [] in
  Event.set_sink (fun ev -> seen := ev :: !seen);
  Fun.protect ~finally:Event.reset_sink (fun () ->
      Event.emit scope Event.Debug (fun () -> "to the sink");
      match !seen with
      | [ ev ] ->
          Alcotest.(check string) "scope" "telemetry-test" ev.Event.ev_scope;
          Alcotest.(check string) "message" "to the sink" ev.Event.ev_message;
          Alcotest.(check bool) "severity" true (ev.Event.ev_severity = Event.Debug)
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let test_events_become_trace_instants () =
  with_tracing (fun () ->
      Resilience.Events.emit
        (Resilience.Events.Component_degraded
           { component = "solver"; reason = "test" });
      let json = Trace.export_json () in
      (* Lisa.Log reroutes resilience events through the "lisa" scope at
         module load, so assert on the rendered message, not the scope *)
      Alcotest.(check bool) "resilience event traced as an instant" true
        (Astring_contains.contains json "\"ph\":\"i\"");
      Alcotest.(check bool) "event message in the trace" true
        (Astring_contains.contains json "solver degraded: test"))

(* ------------------------------------------------------------------ *)
(* Stats recorder: ring + bounded selection                            *)
(* ------------------------------------------------------------------ *)

let jt id wall =
  { Engine.Stats.jt_rule_id = id; jt_wall_s = wall }

let test_job_times_ring_cap () =
  let r = Engine.Stats.recorder ~job_times_cap:3 () in
  List.iter
    (fun i -> Engine.Stats.add_job_time r (jt (string_of_int i) (float_of_int i)))
    [ 1; 2; 3; 4; 5 ];
  let snap = Engine.Stats.snapshot r in
  Alcotest.(check (list string)) "newest three, newest first" [ "5"; "4"; "3" ]
    (List.map
       (fun t -> t.Engine.Stats.jt_rule_id)
       snap.Engine.Stats.job_times);
  Engine.Stats.reset r;
  Alcotest.(check (list string)) "reset empties the ring" []
    (List.map
       (fun t -> t.Engine.Stats.jt_rule_id)
       (Engine.Stats.snapshot r).Engine.Stats.job_times)

let test_slowest_jobs_matches_stable_sort () =
  let r = Engine.Stats.recorder () in
  (* insertion order; ties between a and c must keep newest-first order *)
  List.iter (Engine.Stats.add_job_time r)
    [ jt "a" 0.001; jt "b" 0.002; jt "c" 0.001; jt "d" 0.004 ];
  let snap = Engine.Stats.snapshot r in
  let reference n =
    snap.Engine.Stats.job_times
    |> List.sort (fun a b ->
           compare b.Engine.Stats.jt_wall_s a.Engine.Stats.jt_wall_s)
    |> List.filteri (fun i _ -> i < n)
    |> List.map (fun t ->
           Fmt.str "  %-24s %8.1f ms" t.Engine.Stats.jt_rule_id
             (1000. *. t.Engine.Stats.jt_wall_s))
    |> String.concat "\n"
  in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "bounded selection = stable sort, n=%d" n)
        (reference n)
        (Engine.Stats.slowest_jobs ~n snap))
    [ 1; 2; 3; 4; 10 ]

let test_recorder_counters_via_metrics () =
  let r = Engine.Stats.recorder () in
  let before = Metrics.sample () in
  Metrics.bump ~by:3 t_count;
  Engine.Stats.record r ~wall:0.5 before (Metrics.sample ());
  let snap = Engine.Stats.snapshot r in
  let counters = Engine.Stats.counters snap in
  Alcotest.(check int) "the delta of a test counter" 3
    (List.assoc "test.telemetry.count" counters);
  Alcotest.(check (float 1e-9)) "wall" 0.5 snap.Engine.Stats.wall_s;
  Alcotest.(check (list string)) "every declared metric, declaration order"
    (List.map fst (Metrics.declared ()))
    (List.map fst counters);
  Engine.Stats.reset r;
  Alcotest.(check int) "reset zeroes" 0
    (List.assoc "test.telemetry.count"
       (Engine.Stats.counters (Engine.Stats.snapshot r)))

(* ------------------------------------------------------------------ *)
(* Mock-clock scheduler determinism                                    *)
(* ------------------------------------------------------------------ *)

let zk_book = lazy (Lisa.System_scan.learn_system_book "zookeeper")

(* The zookeeper slice of E11 under the mock clock, tracing on: every
   job's wall time is step x (clock reads made by that job's work), so
   the (rule, wall) list must be bit-for-bit reproducible — and equal
   across pool widths, because workers count their own reads. *)
let scan_job_times ~jobs () =
  Smt.Memo.reset ();
  let config = { Engine.Scheduler.default_config with Engine.Scheduler.jobs } in
  let engine = Engine.Scheduler.create ~config () in
  let book = Lazy.force zk_book in
  Trace.reset ();
  Trace.set_enabled true;
  (* verdict cache off: which job pays a shared query's solve would
     depend on the schedule *)
  Smt.Memo.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Smt.Memo.set_enabled true;
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      Clock.with_clock (Clock.mock ()) (fun () ->
          List.iter
            (fun v ->
              let p = Corpus.Registry.program_of Corpus.Registry.builtin "zookeeper" ~version:v in
              ignore (Engine.Scheduler.enforce engine p book))
            [ 1; 2 ]));
  Smt.Memo.reset ();
  let stats = Engine.Scheduler.stats engine in
  List.map
    (fun t -> (t.Engine.Stats.jt_rule_id, t.Engine.Stats.jt_wall_s))
    stats.Engine.Stats.job_times

let pair_list = Alcotest.(list (pair string (float 0.)))

let test_mock_clock_scheduler_deterministic () =
  let first = scan_job_times ~jobs:1 () in
  let second = scan_job_times ~jobs:1 () in
  Alcotest.(check bool) "jobs ran" true (first <> []);
  Alcotest.check pair_list "bit-for-bit across two runs" first second

let test_mock_clock_jobs1_equals_jobs4 () =
  let serial = scan_job_times ~jobs:1 () in
  let parallel = scan_job_times ~jobs:4 () in
  Alcotest.check pair_list "bit-for-bit, jobs=1 vs jobs=4" serial parallel

(* ------------------------------------------------------------------ *)
(* One declaration reaches the stats and the trace                     *)
(* ------------------------------------------------------------------ *)

(* The only edit this counter needs. *)
let _fresh_counter =
  Metrics.counter "test.fresh_counter" ~doc:"test-only: declared, never bumped"

(* A counter declared in one place, and nowhere else, shows up in the
   scheduler's stats (with its delta over the enforcement: 0, since
   nothing bumps it) and as a "ph":"C" event in the trace.  That a bump
   made inside a checker job reaches the stats is covered by the golden
   stats pin (smt.solve_calls and smt.memo.* are bumped inside jobs) and
   by "recorder counts through metrics" above. *)
let test_one_declaration () =
  let book = Lazy.force zk_book in
  Lisa.Chaos.reset_shared_state ();
  Fun.protect ~finally:Lisa.Chaos.reset_shared_state @@ fun () ->
  with_tracing (fun () ->
      let engine = Engine.Scheduler.create () in
      let p = Corpus.Registry.program_of Corpus.Registry.builtin "zookeeper" ~version:2 in
      ignore (Engine.Scheduler.enforce engine p book);
      let counters = Engine.Stats.counters (Engine.Scheduler.stats engine) in
      Alcotest.(check (option int)) "in the scheduler's stats, delta 0" (Some 0)
        (List.assoc_opt "test.fresh_counter" counters);
      let is_counter_event ev =
        let str k = Option.bind (Serve.Jsonu.member k ev) Serve.Jsonu.to_str in
        str "name" = Some "test.fresh_counter" && str "ph" = Some "C"
      in
      match Serve.Jsonu.parse (Trace.export_json ()) with
      | Ok (Serve.Jsonu.List evs) ->
          Alcotest.(check bool) "a \"ph\":\"C\" event in the trace" true
            (List.exists is_counter_event evs)
      | _ -> Alcotest.fail "trace is not a JSON array")

let suite =
  [
    ( "telemetry.clock",
      [
        Alcotest.test_case "mock ticks deterministically" `Quick
          test_mock_clock_ticks;
        Alcotest.test_case "per-domain tick counters" `Quick
          test_mock_clock_per_domain;
      ] );
    ( "telemetry.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick test_metrics_counters;
        Alcotest.test_case "duplicate name fails" `Quick
          test_metrics_duplicate_name;
      ] );
    ( "telemetry.trace",
      [
        Alcotest.test_case "disabled span is passthrough" `Quick
          test_disabled_span_is_passthrough;
        Alcotest.test_case "span nesting and ids" `Quick test_span_nesting;
        Alcotest.test_case "span recorded on raise" `Quick
          test_span_recorded_on_raise;
        Alcotest.test_case "export is valid chrome-trace JSON" `Quick
          test_export_json_valid;
        Alcotest.test_case "export escapes strings" `Quick
          test_export_json_escaping;
        Alcotest.test_case "summary aggregates by name" `Quick
          test_summary_aggregates;
      ] );
    ( "telemetry.event",
      [
        Alcotest.test_case "suppressed events never format" `Quick
          test_event_thunk_lazy;
        Alcotest.test_case "sink captures structured events" `Quick
          test_event_sink_captures;
        Alcotest.test_case "resilience events become trace instants" `Quick
          test_events_become_trace_instants;
      ] );
    ( "telemetry.stats",
      [
        Alcotest.test_case "job-time ring caps history" `Quick
          test_job_times_ring_cap;
        Alcotest.test_case "bounded slowest_jobs = stable sort" `Quick
          test_slowest_jobs_matches_stable_sort;
        Alcotest.test_case "recorder counts through metrics" `Quick
          test_recorder_counters_via_metrics;
        Alcotest.test_case "one declaration reaches stats and trace" `Quick
          test_one_declaration;
      ] );
    ( "telemetry.determinism",
      [
        Alcotest.test_case "mock-clock scan reproducible" `Quick
          test_mock_clock_scheduler_deterministic;
        Alcotest.test_case "mock-clock scan jobs=1 = jobs=4" `Quick
          test_mock_clock_jobs1_equals_jobs4;
      ] );
  ]
