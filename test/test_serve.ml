(* lib/serve: the enforcement daemon.  Wire protocol codecs, the
   bounded fair admission queue, per-tenant circuit breakers, snapshot
   persistence (qcheck round-trip + every corruption shape falling back
   to a clean cold start), and daemon end-to-end properties: warm and
   restart verdicts byte-identical to cold, overload shedding, breaker
   rejection. *)

let isolated f () =
  Lisa.Chaos.reset_shared_state ();
  Fun.protect ~finally:Lisa.Chaos.reset_shared_state f

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "lisa-test-serve-%d-%d" (Unix.getpid ()) !n)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
    else Unix.mkdir d 0o755;
    d

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_parse_defaults () =
  match Serve.Protocol.parse_request "{\"system\":\"zookeeper\",\"version\":3}" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok r ->
      Alcotest.(check string) "default tenant" "default" r.Serve.Protocol.req_tenant;
      Alcotest.(check string) "default id" "" r.Serve.Protocol.req_id;
      Alcotest.(check bool) "default op is enforce" true
        (r.Serve.Protocol.req_op = Serve.Protocol.Enforce);
      Alcotest.(check int) "default ticket" 0 r.Serve.Protocol.req_ticket;
      Alcotest.(check (option int)) "version" (Some 3) r.Serve.Protocol.req_version

let test_parse_rejects () =
  let bad l =
    match Serve.Protocol.parse_request l with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" l
  in
  bad "not json";
  bad "[1,2]";
  bad "{\"op\":\"launch-missiles\"}";
  bad "{\"id\":\"x\"} trailing"

let test_render_deterministic () =
  let resp =
    Serve.Protocol.Ok_enforce
      {
        id = "r1";
        tenant = "a";
        summary =
          {
            Serve.Protocol.sum_verdict = "violations";
            sum_findings = [ "zk-r1"; "zk-r2" ];
            sum_degraded = [];
            sum_traces = 7;
            sum_rules = 5;
            sum_tiers = [];
          };
        cached = false;
        stats =
          {
            Serve.Protocol.rs_queue_ms = 1.5;
            rs_run_ms = 20.25;
            rs_jobs_run = 5;
            rs_report_hits = 0;
            rs_smt_hits = 3;
            rs_solver_calls = 2;
          };
      }
  in
  Alcotest.(check string)
    "fixed field order, compact"
    "{\"id\":\"r1\",\"tenant\":\"a\",\"status\":\"ok\",\"verdict\":\"violations\",\"findings\":[\"zk-r1\",\"zk-r2\"],\"degraded\":[],\"traces\":7,\"rules\":5,\"cached\":false,\"stats\":{\"queue_ms\":1.5,\"run_ms\":20.25,\"jobs_run\":5,\"report_hits\":0,\"smt_hits\":3,\"solver_calls\":2}}"
    (Serve.Protocol.render_response resp);
  (* round-trip: the rendered response is itself valid Jsonu *)
  match Serve.Jsonu.parse (Serve.Protocol.render_response resp) with
  | Error e -> Alcotest.failf "rendered response is not JSON: %s" e
  | Ok _ -> ()

(* \uXXXX takes exactly four hex digits: [int_of_string "0x1_23"] alone
   would read "\u1_23" as U+0123 *)
let test_json_unicode_escape_strict () =
  (match Serve.Jsonu.parse "\"\\u1_23\"" with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "accepted \\u1_23 as %s" (Serve.Jsonu.to_string v));
  match Serve.Jsonu.parse "\"\\u0041\\u00e9\"" with
  | Ok (Serve.Jsonu.Str s) -> Alcotest.(check string) "hex escapes decode" "A\xc3\xa9" s
  | _ -> Alcotest.fail "valid \\u escapes rejected"

(* 1e400 overflows to inf, whose rendering "inf" is not JSON: reject it
   at parse time *)
let test_json_rejects_non_finite () =
  List.iter
    (fun text ->
      match Serve.Jsonu.parse text with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "accepted %s as %s" text (Serve.Jsonu.to_string v))
    [ "1e400"; "-1e400"; "[1,1e999]" ];
  match Serve.Jsonu.parse "1.5e300" with
  | Ok (Serve.Jsonu.Float f) -> Alcotest.(check (float 0.)) "finite float" 1.5e300 f
  | _ -> Alcotest.fail "finite float rejected"

(* a well-formed but hostile nest of arrays must be refused with a
   structured error, not recursed into; the bound still admits 64 *)
let test_json_bounds_nesting () =
  let nest n = String.make n '[' ^ String.make n ']' in
  (match Serve.Jsonu.parse (nest 100_000) with
  | Error msg ->
      Alcotest.(check bool) ("error names the nesting: " ^ msg) true
        (String.starts_with ~prefix:"nesting deeper than 64" msg)
  | Ok _ -> Alcotest.fail "accepted 100000-deep nesting");
  (match Serve.Jsonu.parse (nest 65) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted 65-deep nesting");
  (match Serve.Jsonu.parse (String.concat "" (List.init 65 (fun _ -> "{\"a\":")) ^ "1" ^ String.make 65 '}') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted 65-deep object nesting");
  match Serve.Jsonu.parse (nest 64) with
  | Ok v -> Alcotest.(check string) "64-deep round-trips" (nest 64) (Serve.Jsonu.to_string v)
  | Error msg -> Alcotest.fail ("rejected 64-deep nesting: " ^ msg)

let test_signature_ignores_timings () =
  let mk ~cached ~queue_ms =
    Serve.Protocol.Ok_enforce
      {
        id = "r1";
        tenant = "a";
        summary =
          {
            Serve.Protocol.sum_verdict = "clean";
            sum_findings = [];
            sum_degraded = [];
            sum_traces = 4;
            sum_rules = 2;
            sum_tiers = [];
          };
        cached;
        stats =
          {
            Serve.Protocol.rs_queue_ms = queue_ms;
            rs_run_ms = 0.;
            rs_jobs_run = 0;
            rs_report_hits = 0;
            rs_smt_hits = 0;
            rs_solver_calls = 0;
          };
      }
  in
  Alcotest.(check string)
    "cached flag and timings excluded from the verdict signature"
    (Serve.Protocol.verdict_signature (mk ~cached:false ~queue_ms:0.))
    (Serve.Protocol.verdict_signature (mk ~cached:true ~queue_ms:99.))

let mk_enforce ?(tiers = []) ~findings () =
  Serve.Protocol.Ok_enforce
    {
      id = "t1";
      tenant = "a";
      summary =
        {
          Serve.Protocol.sum_verdict =
            (if findings = [] then "clean" else "violations");
          sum_findings = findings;
          sum_degraded = [];
          sum_traces = 3;
          sum_rules = 4;
          sum_tiers = tiers;
        };
      cached = false;
      stats =
        {
          Serve.Protocol.rs_queue_ms = 0.5;
          rs_run_ms = 12.;
          rs_jobs_run = 2;
          rs_report_hits = 1;
          rs_smt_hits = 0;
          rs_solver_calls = 1;
        };
    }

(* v2 codec: a tiered enforce response survives render → parse with the
   tiers (and the verdict signature) intact *)
let test_tier_round_trip () =
  let resp =
    mk_enforce
      ~tiers:[ ("zk-r1", "witnessed"); ("zk-r2", "likely-fp") ]
      ~findings:[ "zk-r1"; "zk-r2" ] ()
  in
  let line = Serve.Protocol.render_response resp in
  match Serve.Protocol.parse_response line with
  | Error e -> Alcotest.failf "parse_response failed: %s" e
  | Ok (Serve.Protocol.Ok_enforce { summary = s; _ } as got) ->
      Alcotest.(check (list (pair string string)))
        "tiers round-trip"
        [ ("zk-r1", "witnessed"); ("zk-r2", "likely-fp") ]
        s.Serve.Protocol.sum_tiers;
      Alcotest.(check string) "signature round-trips"
        (Serve.Protocol.verdict_signature resp)
        (Serve.Protocol.verdict_signature got);
      Alcotest.(check string) "re-render is byte-identical" line
        (Serve.Protocol.render_response got)
  | Ok _ -> Alcotest.fail "parsed to the wrong response shape"

(* backward compatibility: a v1 payload (no "tiers") parses with
   [sum_tiers = []], and a tier-less summary renders the v1 byte form *)
let test_tierless_response_parses () =
  let v1_line =
    "{\"id\":\"r1\",\"tenant\":\"a\",\"status\":\"ok\",\"verdict\":\"violations\",\"findings\":[\"zk-r1\"],\"degraded\":[],\"traces\":7,\"rules\":5,\"cached\":true,\"stats\":{\"queue_ms\":1.5,\"run_ms\":0,\"jobs_run\":0,\"report_hits\":0,\"smt_hits\":0,\"solver_calls\":0}}"
  in
  (match Serve.Protocol.parse_response v1_line with
  | Error e -> Alcotest.failf "v1 payload rejected: %s" e
  | Ok (Serve.Protocol.Ok_enforce { summary = s; cached; _ }) ->
      Alcotest.(check (list (pair string string)))
        "tier-less parses with no tiers" [] s.Serve.Protocol.sum_tiers;
      Alcotest.(check (list string))
        "findings intact" [ "zk-r1" ] s.Serve.Protocol.sum_findings;
      Alcotest.(check bool) "cached flag intact" true cached
  | Ok _ -> Alcotest.fail "parsed to the wrong response shape");
  (* and non-enforce responses still parse *)
  List.iter
    (fun r ->
      let line = Serve.Protocol.render_response r in
      match Serve.Protocol.parse_response line with
      | Ok got ->
          Alcotest.(check string)
            ("round-trip " ^ line)
            (Serve.Protocol.verdict_signature r)
            (Serve.Protocol.verdict_signature got)
      | Error e -> Alcotest.failf "%s: %s" line e)
    [
      Serve.Protocol.Ok_ping { id = "p"; tenant = "a" };
      Serve.Protocol.Ok_stats
        { id = "s"; tenant = "a"; fields = [ ("served", 3) ] };
      Serve.Protocol.Ok_saved { id = "v"; tenant = "a"; entries = 2 };
      Serve.Protocol.Ok_shutdown { id = "d"; tenant = "a" };
      Serve.Protocol.Overloaded { id = "o"; tenant = "a"; depth = 9 };
      Serve.Protocol.Rejected
        { id = "j"; tenant = "a"; reason = "breaker_open" };
      Serve.Protocol.Error_resp { id = "e"; tenant = "a"; message = "boom" };
    ]

(* ------------------------------------------------------------------ *)
(* Admission queue                                                     *)
(* ------------------------------------------------------------------ *)

let admit = Alcotest.testable (fun ppf -> function
    | Serve.Queue.Admitted -> Fmt.pf ppf "Admitted"
    | Serve.Queue.Shed d -> Fmt.pf ppf "Shed %d" d)
    ( = )

let test_queue_round_robin () =
  let q = Serve.Queue.create ~depth:16 () in
  List.iter
    (fun (t, x) ->
      Alcotest.(check admit) x Serve.Queue.Admitted (Serve.Queue.push q ~tenant:t x))
    [ ("a", "a1"); ("a", "a2"); ("a", "a3"); ("b", "b1"); ("c", "c1") ];
  let order = List.init 5 (fun _ -> Option.get (Serve.Queue.try_pop q)) in
  Alcotest.(check (list (pair string string)))
    "round-robin across tenants, FIFO within"
    [ ("a", "a1"); ("b", "b1"); ("c", "c1"); ("a", "a2"); ("a", "a3") ]
    order;
  Alcotest.(check (option (pair string string))) "drained" None (Serve.Queue.try_pop q)

let test_queue_sheds_at_depth () =
  let q = Serve.Queue.create ~depth:2 () in
  Alcotest.(check admit) "1 in" Serve.Queue.Admitted (Serve.Queue.push q ~tenant:"a" 1);
  Alcotest.(check admit) "2 in" Serve.Queue.Admitted (Serve.Queue.push q ~tenant:"b" 2);
  Alcotest.(check admit) "3 shed" (Serve.Queue.Shed 2) (Serve.Queue.push q ~tenant:"c" 3);
  Alcotest.(check int) "shed counted" 1 (Serve.Queue.shed_count q);
  ignore (Serve.Queue.try_pop q);
  Alcotest.(check admit) "slot freed" Serve.Queue.Admitted
    (Serve.Queue.push q ~tenant:"c" 4)

let test_queue_close_sheds_and_drains () =
  let q = Serve.Queue.create ~depth:8 () in
  ignore (Serve.Queue.push q ~tenant:"a" 1);
  Serve.Queue.close q;
  Alcotest.(check admit) "push after close sheds" (Serve.Queue.Shed 8)
    (Serve.Queue.push q ~tenant:"a" 2);
  Alcotest.(check (option (pair string int)))
    "closed queue still drains" (Some ("a", 1)) (Serve.Queue.pop q);
  Alcotest.(check (option (pair string int)))
    "then pop returns None, no block" None (Serve.Queue.pop q)

(* ------------------------------------------------------------------ *)
(* Keyed circuit breaker                                               *)
(* ------------------------------------------------------------------ *)

let test_kbreaker_opens_per_key () =
  let b = Resilience.Kbreaker.create ~threshold:2 ~cooldown:2 () in
  Alcotest.(check bool) "closed at start" true (Resilience.Kbreaker.proceed b "a");
  Alcotest.(check bool) "first failure keeps closed" false
    (Resilience.Kbreaker.failure b "a");
  Alcotest.(check bool) "second failure opens" true
    (Resilience.Kbreaker.failure b "a");
  Alcotest.(check bool) "open rejects" false (Resilience.Kbreaker.proceed b "a");
  Alcotest.(check bool) "other tenant unaffected" true
    (Resilience.Kbreaker.proceed b "b");
  Alcotest.(check int) "one trip for a" 1 (Resilience.Kbreaker.trips b "a");
  (* cooldown 2: one more rejected call, then a half-open probe *)
  Alcotest.(check bool) "still open" false (Resilience.Kbreaker.proceed b "a");
  Alcotest.(check bool) "half-open probe allowed" true
    (Resilience.Kbreaker.proceed b "a");
  Resilience.Kbreaker.success b "a";
  Alcotest.(check bool) "probe success closes" true
    (Resilience.Kbreaker.proceed b "a");
  Alcotest.(check (list string)) "keys" [ "a"; "b" ] (Resilience.Kbreaker.keys b)

let test_kbreaker_reopen_on_probe_failure () =
  let b = Resilience.Kbreaker.create ~threshold:1 ~cooldown:1 () in
  Alcotest.(check bool) "opens" true (Resilience.Kbreaker.failure b "t");
  Alcotest.(check bool) "cooldown rejects" false (Resilience.Kbreaker.proceed b "t");
  Alcotest.(check bool) "probe" true (Resilience.Kbreaker.proceed b "t");
  Alcotest.(check bool) "probe failure re-opens" true
    (Resilience.Kbreaker.failure b "t");
  Alcotest.(check bool) "rejected again" false (Resilience.Kbreaker.proceed b "t");
  Alcotest.(check int) "two trips total" 2 (Resilience.Kbreaker.total_trips b)

(* ------------------------------------------------------------------ *)
(* Snapshots: round-trip + corruption tolerance                        *)
(* ------------------------------------------------------------------ *)

let snap_path () = Filename.concat (temp_dir ()) "t.snap"

let prop_snapshot_round_trip =
  QCheck.Test.make ~count:100 ~name:"snapshot save/load round-trips"
    QCheck.(list (pair small_string (list small_int)))
    (fun payload ->
      let path = snap_path () in
      match Serve.Snapshot.save ~path ~kind:"test" payload with
      | Error e -> QCheck.Test.fail_reportf "save failed: %s" e
      | Ok () -> (
          match Serve.Snapshot.load ~path ~kind:"test" with
          | Error e -> QCheck.Test.fail_reportf "load failed: %s" e
          | Ok (got : (string * int list) list) -> got = payload))

(* random formulas through the full persistence pipe: formula → wire →
   marshal → disk → load → wire → formula must land on the *same
   interned node* (physical equality), so restored SMT memo entries are
   indistinguishable from natively-built ones *)
let gen_wire_formula : Smt.Formula.t QCheck.arbitrary =
  let open QCheck in
  let module F = Smt.Formula in
  let term =
    Gen.oneof
      [
        Gen.map F.tvar (Gen.oneofl [ "x"; "y"; "z" ]);
        Gen.map (fun n -> F.tint (n mod 8)) Gen.small_int;
        Gen.map F.tbool Gen.bool;
        Gen.map F.tstr (Gen.oneofl [ "a"; "b" ]);
        Gen.return F.tnull;
      ]
  in
  let rel = Gen.oneofl F.[ Req; Rneq; Rlt; Rle; Rgt; Rge ] in
  let leaf = Gen.map3 (fun r l rh -> F.atom r l rh) rel term term in
  let rec go n =
    if n <= 0 then leaf
    else
      Gen.oneof
        [
          leaf;
          Gen.return F.tru;
          Gen.return F.fls;
          Gen.map F.negate (go (n - 1));
          Gen.map2 (fun a b -> F.conj [ a; b ]) (go (n / 2)) (go (n / 2));
          Gen.map2 (fun a b -> F.disj [ a; b ]) (go (n / 2)) (go (n / 2));
        ]
  in
  make ~print:F.to_string (Gen.sized (fun n -> go (min n 6)))

let prop_wire_snapshot_reinterns =
  QCheck.Test.make ~count:200
    ~name:"formula -> wire -> disk -> formula is physical identity"
    gen_wire_formula
    (fun f ->
      let path = snap_path () in
      let w = Smt.Wire.of_formula f in
      match Serve.Snapshot.save ~path ~kind:"wire" w with
      | Error e -> QCheck.Test.fail_reportf "save failed: %s" e
      | Ok () -> (
          match Serve.Snapshot.load ~path ~kind:"wire" with
          | Error e -> QCheck.Test.fail_reportf "load failed: %s" e
          | Ok (w' : Smt.Wire.wformula) -> Smt.Wire.to_formula w' == f))

let expect_cold what r =
  match r with
  | Ok _ -> Alcotest.failf "%s: loaded instead of cold fallback" what
  | Error (_ : string) -> ()

let test_snapshot_corruption_shapes () =
  let dir = temp_dir () in
  let path = Filename.concat dir "c.snap" in
  let payload = List.init 50 (fun i -> (string_of_int i, i * i)) in
  let save () =
    match Serve.Snapshot.save ~path ~kind:"test" payload with
    | Ok () -> ()
    | Error e -> Alcotest.failf "save failed: %s" e
  in
  let write bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc
  in
  let load () : ((string * int) list, string) result =
    Serve.Snapshot.load ~path ~kind:"test"
  in
  let reason what expected =
    match load () with
    | Ok _ -> Alcotest.failf "%s: loaded" what
    | Error e -> Alcotest.(check string) what expected e
  in
  expect_cold "missing file"
    (Serve.Snapshot.load ~path:(Filename.concat dir "nope.snap") ~kind:"test"
      : ((string * int) list, string) result);
  (* truncated: keep the header plus half the payload *)
  save ();
  let full = In_channel.with_open_bin path In_channel.input_all in
  let header_end = String.index full '\n' + 1 in
  write (String.sub full 0 (header_end + ((String.length full - header_end) / 2)));
  reason "truncated payload" "truncated payload";
  (* random bytes, no structure at all *)
  write (String.init 200 (fun i -> Char.chr (i * 37 mod 256)));
  expect_cold "random bytes" (load ());
  (* stale format version in an otherwise well-formed header *)
  save ();
  let full = In_channel.with_open_bin path In_channel.input_all in
  let nl = String.index full '\n' in
  (match String.split_on_char ' ' (String.sub full 0 nl) with
  | [ magic; _v; kind; digest; len ] ->
      write
        (Printf.sprintf "%s %d %s %s %s%s" magic
           (Serve.Snapshot.format_version + 1)
           kind digest len
           (String.sub full nl (String.length full - nl)))
  | _ -> Alcotest.fail "unexpected header shape");
  reason "stale version" "version mismatch";
  (* payload bit-flip caught by the digest before Marshal runs *)
  save ();
  let full = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string full in
  let mid = String.index full '\n' + 1 + ((Bytes.length b - header_end) / 2) in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
  write (Bytes.to_string b);
  reason "flipped payload byte" "digest mismatch";
  (* wrong kind *)
  save ();
  expect_cold "kind mismatch"
    (Serve.Snapshot.load ~path ~kind:"other"
      : ((string * int) list, string) result);
  (* and the happy path still works after all that *)
  save ();
  match load () with
  | Ok got -> Alcotest.(check bool) "intact file loads" true (got = payload)
  | Error e -> Alcotest.failf "intact file failed: %s" e

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let req_line ?(tenant = "t") ?(id = "r") ?(system = "zookeeper") version =
  Printf.sprintf
    "{\"id\":%S,\"tenant\":%S,\"op\":\"enforce\",\"system\":%S,\"version\":%d}"
    id tenant system version

let signature d line =
  Serve.Protocol.verdict_signature (Serve.Daemon.handle_line d line)

let test_daemon_warm_restart_byte_identical () =
  let dir = temp_dir () in
  let config =
    { Serve.Daemon.default_config with Serve.Daemon.cache_dir = Some dir }
  in
  let lines = [ req_line ~id:"v1" 1; req_line ~id:"v5" 5 ] in
  let d1 = Serve.Daemon.create ~config () in
  let cold = List.map (signature d1) lines in
  let warm = List.map (signature d1) lines in
  Alcotest.(check (list string)) "warm verdicts byte-identical" cold warm;
  Alcotest.(check bool) "warm pass hit the response cache" true
    (List.assoc "cache_hits" (Serve.Daemon.counters d1) >= 2);
  Alcotest.(check bool) "snapshots written" true (Serve.Daemon.save d1 > 0);
  let d2 = Serve.Daemon.create ~config () in
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s warm-started (%s)" k v)
        true
        (String.length v >= 4 && String.sub v 0 4 = "warm"))
    (Serve.Daemon.warm_report d2);
  let restart = List.map (signature d2) lines in
  Alcotest.(check (list string)) "restart verdicts byte-identical" cold restart;
  Alcotest.(check bool) "restart served from persisted cache" true
    (List.assoc "cache_hits" (Serve.Daemon.counters d2) >= 2)

let test_daemon_corrupt_snapshot_cold_start () =
  let dir = temp_dir () in
  let config =
    { Serve.Daemon.default_config with Serve.Daemon.cache_dir = Some dir }
  in
  let line = req_line ~id:"v1" 1 in
  let d1 = Serve.Daemon.create ~config () in
  let cold = signature d1 line in
  ignore (Serve.Daemon.save d1);
  (* stomp both snapshots with garbage *)
  List.iter
    (fun f ->
      let oc = open_out_bin (Filename.concat dir f) in
      output_string oc "LISA-SNAP but then garbage\nxxxx";
      close_out oc)
    [ "responses.snap"; "smt.snap" ];
  let d2 = Serve.Daemon.create ~config () in
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s fell back cold (%s)" k v)
        true
        (String.length v >= 4 && String.sub v 0 4 = "cold"))
    (Serve.Daemon.warm_report d2);
  Alcotest.(check string) "cold fallback still serves, same verdict" cold
    (signature d2 line);
  Alcotest.(check int) "nothing pre-cached after corruption" 0
    (List.assoc "cache_hits" (Serve.Daemon.counters d2))

(* a violating release gets a tier per violating rule; a triage-off
   daemon answers the same request with the v1 tier-less summary *)
let test_daemon_tiers_on_findings () =
  let line = req_line ~id:"v2" 2 in
  let d = Serve.Daemon.create () in
  (match Serve.Daemon.handle_line d line with
  | Serve.Protocol.Ok_enforce { summary = s; _ } ->
      Alcotest.(check string) "violations" "violations" s.Serve.Protocol.sum_verdict;
      Alcotest.(check int) "one tier per violating rule"
        (List.length s.Serve.Protocol.sum_findings)
        (List.length s.Serve.Protocol.sum_tiers);
      List.iter
        (fun (id, t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s=%s is a known tier" id t)
            true
            (List.mem t [ "witnessed"; "consistent"; "likely-fp" ]))
        s.Serve.Protocol.sum_tiers
  | _ -> Alcotest.fail "expected an enforce response");
  let off =
    Serve.Daemon.create
      ~config:{ Serve.Daemon.default_config with Serve.Daemon.triage = None }
      ()
  in
  match Serve.Daemon.handle_line off line with
  | Serve.Protocol.Ok_enforce { summary = s; _ } ->
      Alcotest.(check (list (pair string string)))
        "triage off: no tiers" [] s.Serve.Protocol.sum_tiers
  | _ -> Alcotest.fail "expected an enforce response"

let test_daemon_breaker_rejects_failing_tenant () =
  let config =
    {
      Serve.Daemon.default_config with
      Serve.Daemon.breaker_threshold = 2;
      breaker_cooldown = 3;
    }
  in
  let d = Serve.Daemon.create ~config () in
  let bad = req_line ~tenant:"bad" ~system:"no-such-system" 1 in
  let status l =
    match Serve.Daemon.handle_line d l with
    | Serve.Protocol.Error_resp _ -> "error"
    | Serve.Protocol.Rejected { reason; _ } -> "rejected:" ^ reason
    | Serve.Protocol.Ok_enforce _ -> "ok"
    | _ -> "other"
  in
  Alcotest.(check string) "failure 1" "error" (status bad);
  Alcotest.(check string) "failure 2 opens the breaker" "error" (status bad);
  Alcotest.(check string) "open breaker rejects before running"
    "rejected:breaker_open" (status bad);
  Alcotest.(check string) "other tenant unaffected" "ok"
    (status (req_line ~tenant:"good" 1))

let test_daemon_channels_overload_and_drain () =
  (* depth 1, three requests, drain-after-eof: request 1 admitted,
     2 and 3 deterministically shed, everything answered, clean exit *)
  let dir = temp_dir () in
  let input = Filename.concat dir "in.jsonl" in
  let output = Filename.concat dir "out.jsonl" in
  Out_channel.with_open_bin input (fun oc ->
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        [ req_line ~id:"q1" 1; req_line ~id:"q2" 5; req_line ~id:"q3" 3 ]);
  let config =
    {
      Serve.Daemon.default_config with
      Serve.Daemon.queue_depth = 1;
      drain_after_eof = true;
    }
  in
  let d = Serve.Daemon.create ~config () in
  In_channel.with_open_bin input (fun ic ->
      Out_channel.with_open_bin output (fun oc ->
          Serve.Daemon.serve_channels d ic oc));
  let lines = In_channel.with_open_bin output In_channel.input_lines in
  let statuses =
    List.map
      (fun l ->
        match Serve.Jsonu.parse l with
        | Ok obj ->
            ( Option.get
                (Option.bind (Serve.Jsonu.member "id" obj) Serve.Jsonu.to_str),
              Option.get
                (Option.bind (Serve.Jsonu.member "status" obj)
                   Serve.Jsonu.to_str) )
        | Error e -> Alcotest.failf "bad response line %S: %s" l e)
      lines
  in
  let status_of id = List.assoc id statuses in
  Alcotest.(check int) "every request answered" 3 (List.length statuses);
  Alcotest.(check string) "q1 served" "ok" (status_of "q1");
  Alcotest.(check string) "q2 shed" "overloaded" (status_of "q2");
  Alcotest.(check string) "q3 shed" "overloaded" (status_of "q3");
  Alcotest.(check int) "daemon counted the sheds" 2
    (List.assoc "shed" (Serve.Daemon.counters d))

(* the builtin corpus with every case passed through [f] *)
let builtin_with (f : Corpus.Case.t -> Corpus.Case.t) : Corpus.Registry.t =
  let reg = Corpus.Registry.builtin in
  Corpus.Registry.make ~name:reg.Corpus.Registry.name
    ~max_version:reg.Corpus.Registry.max_version
    ~scan_versions:reg.Corpus.Registry.scan_versions
    ~meta:reg.Corpus.Registry.meta
    (List.map
       (fun system ->
         Corpus.Registry.provider ~system
           (List.map f (Corpus.Registry.cases_of reg system)))
       reg.Corpus.Registry.systems)

let first_case () = List.hd Corpus.Registry.builtin.Corpus.Registry.cases

let case_line ?(tenant = "t") ?(id = "r") ?(ticket = 0) case_id version =
  Printf.sprintf
    "{\"id\":%S,\"tenant\":%S,\"case\":%S,\"ticket\":%d,\"version\":%d}"
    id tenant case_id ticket version

let status_of_response = function
  | Serve.Protocol.Ok_enforce _ -> "ok"
  | Serve.Protocol.Error_resp _ -> "error"
  | Serve.Protocol.Rejected { reason; _ } -> "rejected:" ^ reason
  | Serve.Protocol.Overloaded _ -> "overloaded"
  | _ -> "other"

(* a source that does not parse fails its request with an error
   response; the daemon (and the channel server's worker) keeps serving *)
let test_daemon_resolve_failure_answered () =
  let broken = first_case () in
  let registry =
    builtin_with (fun c ->
        if c.Corpus.Case.case_id <> broken.Corpus.Case.case_id then c
        else
          {
            c with
            Corpus.Case.source =
              (fun stage ->
                if stage = 1 then "class { broken" else c.Corpus.Case.source stage);
          })
  in
  let other =
    List.find
      (fun s -> s <> broken.Corpus.Case.system)
      registry.Corpus.Registry.systems
  in
  let lines =
    [
      case_line ~id:"case" broken.Corpus.Case.case_id 1;
      req_line ~id:"sys" ~system:broken.Corpus.Case.system 1;
      req_line ~id:"other" ~system:other 1;
    ]
  in
  let config = { Serve.Daemon.default_config with Serve.Daemon.registry } in
  let d = Serve.Daemon.create ~config () in
  Alcotest.(check (list string))
    "both broken scopes error, the other system is served"
    [ "error"; "error"; "ok" ]
    (List.map (fun l -> status_of_response (Serve.Daemon.handle_line d l)) lines);
  Alcotest.(check int) "errors counted" 2
    (List.assoc "errors" (Serve.Daemon.counters d));
  Alcotest.(check int) "failed resolutions are not memoized" 1
    (Serve.Daemon.key_memo_size d);
  let dir = temp_dir () in
  let input = Filename.concat dir "in.jsonl" in
  let output = Filename.concat dir "out.jsonl" in
  Out_channel.with_open_bin input (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  let d =
    Serve.Daemon.create
      ~config:{ config with Serve.Daemon.drain_after_eof = true }
      ()
  in
  In_channel.with_open_bin input (fun ic ->
      Out_channel.with_open_bin output (fun oc ->
          Serve.Daemon.serve_channels d ic oc));
  let replies = In_channel.with_open_bin output In_channel.input_lines in
  Alcotest.(check (list string))
    "the worker answers all three, in order"
    [ "error"; "error"; "ok" ]
    (List.map
       (fun l ->
         match Serve.Protocol.parse_response l with
         | Ok r -> status_of_response r
         | Error e -> Alcotest.failf "bad reply %S: %s" l e)
       replies)

(* every enforce key of the builtin corpus: each system and each case
   ticket, at every version *)
let all_keys (reg : Corpus.Registry.t) : string list =
  let versions = List.init (reg.Corpus.Registry.max_version + 1) Fun.id in
  List.concat_map
    (fun v ->
      List.map (fun s -> req_line ~id:"k" ~system:s v) reg.Corpus.Registry.systems
      @ List.concat_map
          (fun (c : Corpus.Case.t) ->
            List.mapi
              (fun ticket _ -> case_line ~id:"k" ~ticket c.Corpus.Case.case_id v)
              c.Corpus.Case.ticket_meta)
          reg.Corpus.Registry.cases)
    versions

(* a response-cache hit on memoized coordinates reads no case source:
   no ticket is built, no release assembled *)
let test_daemon_hit_reads_no_source () =
  let reads = Atomic.make 0 in
  let registry =
    builtin_with (fun c ->
        {
          c with
          Corpus.Case.source =
            (fun stage ->
              Atomic.incr reads;
              c.Corpus.Case.source stage);
        })
  in
  let d =
    Serve.Daemon.create
      ~config:{ Serve.Daemon.default_config with Serve.Daemon.registry }
      ()
  in
  let keys = all_keys registry in
  let warm = List.map (signature d) keys in
  Alcotest.(check bool) "warm-up read sources" true (Atomic.get reads > 0);
  Atomic.set reads 0;
  let replay = List.map (Serve.Daemon.handle_line d) keys in
  Alcotest.(check int) "replay read no source" 0 (Atomic.get reads);
  List.iteri
    (fun i r ->
      match r with
      | Serve.Protocol.Ok_enforce { cached; _ } ->
          Alcotest.(check bool) (List.nth keys i ^ " cached") true cached
      | r ->
          Alcotest.failf "%s: %s" (List.nth keys i)
            (Serve.Protocol.render_response r))
    replay;
  Alcotest.(check (list string))
    "replayed verdicts byte-identical" warm
    (List.map Serve.Protocol.verdict_signature replay)

let test_daemon_key_memo_bounded () =
  let d = Serve.Daemon.create () in
  let size () = Serve.Daemon.key_memo_size d in
  let sys_ticket ticket =
    Printf.sprintf
      "{\"id\":\"r\",\"system\":\"zookeeper\",\"ticket\":%d,\"version\":1}"
      ticket
  in
  Alcotest.(check string) "ticket 0" "ok"
    (status_of_response (Serve.Daemon.handle_line d (sys_ticket 0)));
  (match Serve.Daemon.handle_line d (sys_ticket 7) with
  | Serve.Protocol.Ok_enforce { cached; _ } ->
      Alcotest.(check bool) "ticket 7 hits ticket 0's verdict" true cached
  | r -> Alcotest.failf "ticket 7: %s" (Serve.Protocol.render_response r));
  Alcotest.(check int) "a system request ignores its ticket" 1 (size ());
  (* on their own tenant: three failures would open "t"'s breaker *)
  let tenant = "bad" in
  let case_id = (first_case ()).Corpus.Case.case_id in
  List.iter
    (fun (what, line) ->
      Alcotest.(check string) what "error"
        (status_of_response (Serve.Daemon.handle_line d line));
      Alcotest.(check int) (what ^ " adds no entry") 1 (size ()))
    [
      ("unknown case", case_line ~tenant "no-such-case" 1);
      ("version out of range", req_line ~tenant 99);
      ("ticket out of range", case_line ~tenant ~ticket:9 case_id 1);
    ];
  (* the memo holds keys, not verdicts: a degraded verdict is never
     cached, so its coordinates' next request runs again *)
  Resilience.Injector.arm
    (Resilience.Plan.make ~points:[ Resilience.Fault.Concolic ]
       ~kinds:[ Resilience.Fault.Crash ] ~seed:5 ~rate:1.0 ());
  let degraded () =
    match Serve.Daemon.handle_line d (req_line 2) with
    | Serve.Protocol.Ok_enforce { cached; summary; _ } ->
        Alcotest.(check bool) "verdict degraded" true
          (summary.Serve.Protocol.sum_degraded <> []);
        cached
    | r -> Alcotest.failf "degraded request: %s" (Serve.Protocol.render_response r)
  in
  Alcotest.(check bool) "first degraded answer uncached" false (degraded ());
  Alcotest.(check int) "its key is memoized" 2 (size ());
  Alcotest.(check bool) "next request still uncached" false (degraded ());
  Alcotest.(check int) "memo unchanged" 2 (size ())

(* response-cache keys as computed before the key memo existed: snapshots
   written by earlier daemons must keep warm-starting this one *)
let test_daemon_keys_pinned () =
  let dir = temp_dir () in
  let d =
    Serve.Daemon.create
      ~config:{ Serve.Daemon.default_config with Serve.Daemon.cache_dir = Some dir }
      ()
  in
  let c = first_case () in
  Alcotest.(check string) "first builtin case" "zk-ephemeral" c.Corpus.Case.case_id;
  let keys_after line =
    ignore (Serve.Daemon.handle_line d line);
    ignore (Serve.Daemon.save d);
    match
      Serve.Snapshot.load
        ~path:(Filename.concat dir "responses.snap")
        ~kind:(Printf.sprintf "responses/v%d" Serve.Protocol.version)
    with
    | Ok (entries : (string * Serve.Protocol.summary) list) ->
        List.sort compare (List.map fst entries)
    | Error e -> Alcotest.failf "responses snapshot: %s" e
  in
  Alcotest.(check (list string))
    "zookeeper v1" [ "9dfe3bad74c32ac8d31c99c631961a96" ]
    (keys_after (req_line 1));
  Alcotest.(check (list string))
    "zk-ephemeral ticket 0 v2"
    [ "2e26eb93d7d601f92a9d3e2d1cfb663b"; "9dfe3bad74c32ac8d31c99c631961a96" ]
    (keys_after (case_line c.Corpus.Case.case_id 2))

let suite =
  [
    ( "serve.protocol",
      [
        Alcotest.test_case "parse fills defaults" `Quick test_parse_defaults;
        Alcotest.test_case "json \\u escape takes four hex digits" `Quick
          test_json_unicode_escape_strict;
        Alcotest.test_case "json rejects non-finite numbers" `Quick
          test_json_rejects_non_finite;
        Alcotest.test_case "json bounds nesting depth" `Quick
          test_json_bounds_nesting;
        Alcotest.test_case "parse rejects malformed requests" `Quick
          test_parse_rejects;
        Alcotest.test_case "render is deterministic" `Quick
          test_render_deterministic;
        Alcotest.test_case "verdict signature ignores timings" `Quick
          test_signature_ignores_timings;
        Alcotest.test_case "tiered summary round-trips (v2)" `Quick
          test_tier_round_trip;
        Alcotest.test_case "tier-less (v1) payloads still parse" `Quick
          test_tierless_response_parses;
      ] );
    ( "serve.queue",
      [
        Alcotest.test_case "round-robin fairness" `Quick test_queue_round_robin;
        Alcotest.test_case "sheds at depth, never blocks" `Quick
          test_queue_sheds_at_depth;
        Alcotest.test_case "close sheds pushes, drains pops" `Quick
          test_queue_close_sheds_and_drains;
      ] );
    ( "serve.kbreaker",
      [
        Alcotest.test_case "opens per key, half-open probe" `Quick
          test_kbreaker_opens_per_key;
        Alcotest.test_case "probe failure re-opens" `Quick
          test_kbreaker_reopen_on_probe_failure;
      ] );
    ( "serve.snapshot",
      [
        QCheck_alcotest.to_alcotest prop_snapshot_round_trip;
        QCheck_alcotest.to_alcotest prop_wire_snapshot_reinterns;
        Alcotest.test_case "every corruption shape starts cold" `Quick
          test_snapshot_corruption_shapes;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "warm and restart verdicts byte-identical" `Slow
          (isolated test_daemon_warm_restart_byte_identical);
        Alcotest.test_case "corrupt snapshots fall back to cold start" `Slow
          (isolated test_daemon_corrupt_snapshot_cold_start);
        Alcotest.test_case "findings carry triage tiers; off renders v1" `Slow
          (isolated test_daemon_tiers_on_findings);
        Alcotest.test_case "breaker rejects a failing tenant" `Slow
          (isolated test_daemon_breaker_rejects_failing_tenant);
        Alcotest.test_case "channel server sheds deterministically" `Slow
          (isolated test_daemon_channels_overload_and_drain);
        Alcotest.test_case "a failing resolve is answered, worker lives" `Slow
          (isolated test_daemon_resolve_failure_answered);
        Alcotest.test_case "a hit reads no source" `Slow
          (isolated test_daemon_hit_reads_no_source);
        Alcotest.test_case "key memo is bounded and holds no verdict" `Slow
          (isolated test_daemon_key_memo_bounded);
        Alcotest.test_case "response-cache keys are pinned" `Slow
          (isolated test_daemon_keys_pinned);
      ] );
  ]
