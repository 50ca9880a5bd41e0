(* Tests for the fix synthesizer: proposals for the two §4 unknown bugs
   must verify (rule clean + tests green), and a synthesized guard must be
   semantically equivalent to the hand-written one. *)

let test_fixes_verify case_id () =
  let cf = Lisa.Fix.fix_unknown_bug case_id in
  Alcotest.(check bool) "at least one proposal" true (cf.Lisa.Fix.cf_proposals <> []);
  List.iter
    (fun ((p : Lisa.Fix.proposal), (v : Lisa.Fix.verification)) ->
      if not v.Lisa.Fix.fv_rule_clean then
        Alcotest.fail
          (Fmt.str "%s: rule not clean after fix: %s" p.Lisa.Fix.fp_method
             v.Lisa.Fix.fv_detail);
      if not v.Lisa.Fix.fv_tests_green then
        Alcotest.fail
          (Fmt.str "%s: tests broken by fix: %s" p.Lisa.Fix.fp_method
             v.Lisa.Fix.fv_detail))
    cf.Lisa.Fix.cf_proposals

let test_fix_targets_right_method () =
  let cf = Lisa.Fix.fix_unknown_bug "hdfs-observer-locations" in
  List.iter
    (fun ((p : Lisa.Fix.proposal), _) ->
      Alcotest.(check string) "patched method" "ObserverNameNode.getBatchedListing"
        p.Lisa.Fix.fp_method)
    cf.Lisa.Fix.cf_proposals

let test_fix_diff_is_reviewable () =
  let cf = Lisa.Fix.fix_unknown_bug "hdfs-observer-locations" in
  match cf.Lisa.Fix.cf_proposals with
  | ((p : Lisa.Fix.proposal), _) :: _ ->
      Alcotest.(check bool) "diff adds the guard" true
        (Astring_contains.contains p.Lisa.Fix.fp_diff "+    if (!(b.locationCount != 0)) {");
      Alcotest.(check bool) "diff contains hunk header" true
        (Astring_contains.contains p.Lisa.Fix.fp_diff "@@ -")
  | [] -> Alcotest.fail "no proposals"

(* the synthesized fix is equivalent to the hand-written one: the patched
   program behaves like stage 5 (the real fix) on the regression test *)
let test_fix_matches_handwritten_behaviour () =
  let c = Option.get (Corpus.Registry.find Corpus.Registry.builtin "hbase-snapshot-ttl") in
  let cf = Lisa.Fix.fix_unknown_bug "hbase-snapshot-ttl" in
  match cf.Lisa.Fix.cf_proposals with
  | ((p : Lisa.Fix.proposal), _) :: _ ->
      (* run the stage-5 regression test against the synthesized patch *)
      let handwritten_stage = c.Corpus.Case.n_stages - 1 in
      let handwritten = Corpus.Case.program_at c handwritten_stage in
      let regression_test = "test_hbase29296_copy_expired_rejected" in
      (* the test exists in the handwritten fix... *)
      Alcotest.(check bool) "test exists in stage 5" true
        (Minilang.Ast.find_func handwritten regression_test <> None);
      (* ...and passes against the synthesized patch once appended *)
      let test_src =
        {|
method test_synthesized_copy_expired_rejected() {
  var sm: SnapshotManager = makeSnapshotManager();
  var rejected: bool = false;
  try { var t: str = sm.copyTableFromSnapshot("snap-live", 2000); } catch (e) { rejected = true; }
  assert (rejected, "expired snapshot not copyable after synthesized fix");
}
|}
      in
      let patched =
        Minilang.Parser.program (p.Lisa.Fix.fp_patched_source ^ test_src)
      in
      (match Minilang.Interp.run_test patched "test_synthesized_copy_expired_rejected" with
      | Minilang.Interp.Passed -> ()
      | Minilang.Interp.Failed m | Minilang.Interp.Errored m -> Alcotest.fail m)
  | [] -> Alcotest.fail "no proposals"

let test_no_proposal_for_lock_rules () =
  let rule =
    Semantics.Rule.make ~rule_id:"l" ~description:"d" ~high_level:"h" ~origin:"o"
      (Semantics.Rule.Lock_discipline { scope = Semantics.Rule.Lock_blocking })
  in
  let p = Corpus.Case.program_at (List.hd Corpus.Zookeeper.cases) 2 in
  Alcotest.(check bool) "lock rules are not guard-patchable" true
    (Lisa.Fix.propose p rule ~method_:"whatever" = None)

let suite =
  [
    ( "lisa.fix",
      [
        Alcotest.test_case "hbase fix verifies" `Quick
          (test_fixes_verify "hbase-snapshot-ttl");
        Alcotest.test_case "hdfs fix verifies" `Quick
          (test_fixes_verify "hdfs-observer-locations");
        Alcotest.test_case "targets the right method" `Quick test_fix_targets_right_method;
        Alcotest.test_case "diff is reviewable" `Quick test_fix_diff_is_reviewable;
        Alcotest.test_case "matches hand-written behaviour" `Quick
          test_fix_matches_handwritten_behaviour;
        Alcotest.test_case "no proposal for lock rules" `Quick test_no_proposal_for_lock_rules;
      ] );
  ]
