(* Corpus-level tests: ticket integrity for all 16 cases, version assembly,
   commit histories, and random-workload fuzzing of the fixed releases. *)

let all = Corpus.Registry.builtin.cases

(* ------------------------------------------------------------------ *)
(* Ticket integrity                                                    *)
(* ------------------------------------------------------------------ *)

let test_every_case_has_tickets () =
  List.iter
    (fun (c : Corpus.Case.t) ->
      let tickets = Corpus.Case.tickets c in
      Alcotest.(check bool)
        (c.Corpus.Case.case_id ^ " has >= 2 tickets")
        true
        (List.length tickets >= 2);
      List.iter
        (fun (t : Oracle.Ticket.t) ->
          (* the diff is non-trivial *)
          let d = Oracle.Ticket.diff t in
          Alcotest.(check bool)
            (t.Oracle.Ticket.ticket_id ^ " diff non-trivial")
            true
            (Astring_contains.contains d "+");
          (* every fix ships at least one regression test, and it exists in
             the patched program *)
          Alcotest.(check bool)
            (t.Oracle.Ticket.ticket_id ^ " ships a regression test")
            true
            (t.Oracle.Ticket.regression_tests <> []);
          let patched_tests = Minilang.Interp.test_names t.Oracle.Ticket.patched_program in
          List.iter
            (fun test ->
              Alcotest.(check bool) (test ^ " exists in patched") true
                (List.mem test patched_tests))
            t.Oracle.Ticket.regression_tests)
        tickets)
    all

let test_regression_tests_catch_their_own_bug () =
  (* each fix's regression test fails on the version just before the fix *)
  List.iter
    (fun (c : Corpus.Case.t) ->
      List.iter
        (fun (stage, ticket_id, _, _) ->
          match Corpus.Case.ticket_at c stage with
          | None -> ()
          | Some t ->
              let before = Corpus.Case.program_at c (stage - 1) in
              let patched_only =
                List.filter
                  (fun name ->
                    Minilang.Ast.find_func before name <> None)
                  t.Oracle.Ticket.regression_tests
              in
              (* tests added with the fix usually do not even exist before;
                 when they do, they must fail there *)
              List.iter
                (fun name ->
                  match Minilang.Interp.run_test before name with
                  | Minilang.Interp.Passed ->
                      Alcotest.fail
                        (Fmt.str "%s: %s passes on the pre-fix version" ticket_id name)
                  | Minilang.Interp.Failed _ | Minilang.Interp.Errored _ -> ())
                patched_only)
        c.Corpus.Case.ticket_meta)
    all

let builtin_and_synth =
  lazy (all @ (Corpus.Synth.registry ~seed:42 ~scale:1 ()).Corpus.Registry.cases)

(* a ticket's regression tests are the tests its fix stage added over
   the stage before *)
let test_ticket_regression_tests_from_stages () =
  List.iter
    (fun (c : Corpus.Case.t) ->
      List.iter
        (fun (stage, ticket_id, _, _) ->
          let tests s = Minilang.Interp.test_names (Corpus.Case.program_at c s) in
          let before = tests (stage - 1) in
          let added = List.filter (fun t -> not (List.mem t before)) (tests stage) in
          let t = Option.get (Corpus.Case.ticket_at c stage) in
          Alcotest.(check (list string)) (ticket_id ^ " regression tests") added
            t.Oracle.Ticket.regression_tests)
        c.Corpus.Case.ticket_meta)
    (Lazy.force builtin_and_synth)

let test_original_ticket_is_first () =
  List.iter
    (fun (c : Corpus.Case.t) ->
      let o = Corpus.Case.original_ticket c in
      let t = List.hd (Corpus.Case.tickets c) in
      let id = c.Corpus.Case.case_id in
      Alcotest.(check string) (id ^ " ticket id") t.Oracle.Ticket.ticket_id
        o.Oracle.Ticket.ticket_id;
      Alcotest.(check string) (id ^ " buggy source") t.Oracle.Ticket.buggy_source
        o.Oracle.Ticket.buggy_source;
      Alcotest.(check string) (id ^ " patched source") t.Oracle.Ticket.patched_source
        o.Oracle.Ticket.patched_source;
      Alcotest.(check (list string)) (id ^ " regression tests")
        t.Oracle.Ticket.regression_tests o.Oracle.Ticket.regression_tests)
    (Lazy.force builtin_and_synth)

(* building the original ticket reads its two stages and no other *)
let test_original_ticket_reads_two_stages () =
  List.iter
    (fun (c : Corpus.Case.t) ->
      let reads = ref [] in
      let counted =
        {
          c with
          Corpus.Case.source =
            (fun s ->
              reads := s :: !reads;
              c.Corpus.Case.source s);
        }
      in
      ignore (Corpus.Case.original_ticket counted);
      Alcotest.(check (list int)) (c.Corpus.Case.case_id ^ " stages read") [ 0; 1 ]
        (List.sort compare !reads))
    (Lazy.force builtin_and_synth)

(* the i-th ticket is the i-th of [tickets], built from its own two
   stages only; out of range is [None] *)
let test_ith_ticket_reads_its_stages () =
  List.iter
    (fun (c : Corpus.Case.t) ->
      let id = c.Corpus.Case.case_id in
      let reads = ref [] in
      let counted =
        {
          c with
          Corpus.Case.source =
            (fun s ->
              reads := s :: !reads;
              c.Corpus.Case.source s);
        }
      in
      List.iteri
        (fun i (t : Oracle.Ticket.t) ->
          reads := [];
          match Corpus.Case.ticket counted i with
          | None -> Alcotest.failf "%s ticket %d missing" id i
          | Some u ->
              let stage, _, _, _ = List.nth c.Corpus.Case.ticket_meta i in
              Alcotest.(check string) (Fmt.str "%s ticket %d id" id i)
                t.Oracle.Ticket.ticket_id u.Oracle.Ticket.ticket_id;
              Alcotest.(check (list int)) (Fmt.str "%s ticket %d stages read" id i)
                [ stage - 1; stage ] (List.sort compare !reads))
        (Corpus.Case.tickets c);
      let n = List.length c.Corpus.Case.ticket_meta in
      Alcotest.(check bool) (id ^ " past the last ticket") true
        (Corpus.Case.ticket c n = None && Corpus.Case.ticket c (-1) = None))
    (Lazy.force builtin_and_synth)

let test_bug_ids_unique () =
  let ids = List.concat_map (fun (c : Corpus.Case.t) -> c.Corpus.Case.bug_ids) all in
  Alcotest.(check int) "bug ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_unknown_bug_cases () =
  let unknowns =
    List.filter (fun (c : Corpus.Case.t) -> c.Corpus.Case.latest_has_unknown_bug) all
  in
  Alcotest.(check (list string)) "exactly the two paper cases"
    [ "hbase-snapshot-ttl"; "hdfs-observer-locations" ]
    (List.map (fun (c : Corpus.Case.t) -> c.Corpus.Case.case_id) unknowns);
  List.iter
    (fun (c : Corpus.Case.t) ->
      Alcotest.(check int) (c.Corpus.Case.case_id ^ " latest is stage 4") 4
        c.Corpus.Case.latest_stage;
      Alcotest.(check int) (c.Corpus.Case.case_id ^ " has 3 bugs") 3 (Corpus.Case.n_bugs c))
    unknowns

let test_commit_history_mentions_tickets () =
  List.iter
    (fun system ->
      let history = Corpus.Registry.history_of Corpus.Registry.builtin system in
      Alcotest.(check int) (system ^ " history length") (Corpus.Registry.builtin.max_version + 1)
        (List.length history);
      (* v1 commits mention the first fix of some case of the system *)
      let _, msg = List.nth history 1 in
      Alcotest.(check bool) (system ^ " v1 mentions a ticket: " ^ msg) true
        (List.exists
           (fun (c : Corpus.Case.t) ->
             Astring_contains.contains msg (List.hd c.Corpus.Case.bug_ids))
           (Corpus.Registry.cases_of Corpus.Registry.builtin system)))
    Corpus.Registry.builtin.systems

let test_system_source_deterministic () =
  List.iter
    (fun system ->
      let a = Corpus.Registry.source_of Corpus.Registry.builtin system ~version:2 in
      let b = Corpus.Registry.source_of Corpus.Registry.builtin system ~version:2 in
      Alcotest.(check bool) (system ^ " deterministic assembly") true (String.equal a b))
    Corpus.Registry.builtin.systems

(* ------------------------------------------------------------------ *)
(* Random-workload fuzzing of the fixed releases                       *)
(* ------------------------------------------------------------------ *)

(* Drive the composition scenarios with random operation sequences (longer
   than the exhaustive bound) on the *fixed* stage: the high-level
   invariants must survive arbitrary client behaviour. *)
let fuzz_scenario (sd : Lisa.Composition.scenario_def) =
  let c = Option.get (Corpus.Registry.find Corpus.Registry.builtin sd.Lisa.Composition.sd_case) in
  QCheck.Test.make ~count:60
    ~name:(sd.Lisa.Composition.sd_case ^ " fixed release survives random workloads")
    QCheck.(make Gen.(list_size (int_range 1 10) (int_bound 1000)))
    (fun choices ->
      let stage = 3 in
      let ops = sd.Lisa.Composition.sd_ops stage in
      let seq = List.map (fun i -> List.nth ops (i mod List.length ops)) choices in
      let src = c.Corpus.Case.source stage ^ Lisa.Composition.stage_harness sd stage in
      let program = Minilang.Parser.program src in
      let st = Minilang.Interp.create program in
      let state_value = Minilang.Interp.call st "mcInit" [] in
      List.iter
        (fun op ->
          match Minilang.Interp.call st op [ state_value ] with
          | _ -> ()
          | exception Minilang.Interp.Mini_throw _ -> () (* guard rejection *))
        seq;
      match Minilang.Interp.call st "mcInv" [ state_value ] with
      | Minilang.Value.V_bool ok -> ok
      | _ -> false)

let fuzz_tests = List.map fuzz_scenario Lisa.Composition.scenarios

let suite =
  [
    ( "corpus.tickets",
      [
        Alcotest.test_case "every case has tickets" `Quick test_every_case_has_tickets;
        Alcotest.test_case "regression tests catch their bug" `Quick
          test_regression_tests_catch_their_own_bug;
        Alcotest.test_case "regression tests = added tests" `Quick
          test_ticket_regression_tests_from_stages;
        Alcotest.test_case "original ticket is the first" `Quick
          test_original_ticket_is_first;
        Alcotest.test_case "original ticket reads two stages" `Quick
          test_original_ticket_reads_two_stages;
        Alcotest.test_case "i-th ticket reads its two stages" `Quick
          test_ith_ticket_reads_its_stages;
        Alcotest.test_case "bug ids unique" `Quick test_bug_ids_unique;
        Alcotest.test_case "unknown-bug cases" `Quick test_unknown_bug_cases;
        Alcotest.test_case "commit history" `Quick test_commit_history_mentions_tickets;
        Alcotest.test_case "deterministic assembly" `Quick test_system_source_deterministic;
      ] );
    ("corpus.fuzz", List.map QCheck_alcotest.to_alcotest fuzz_tests);
  ]
