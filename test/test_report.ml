(* Tests for the Markdown report renderer and solver algebraic properties
   used by the complement check. *)

let zk = List.hd Corpus.Zookeeper.cases

let reports_at stage =
  let outcome = Lisa.Pipeline.learn (Corpus.Case.original_ticket zk) in
  let book =
    Semantics.Rulebook.of_rules ~system:"zookeeper" outcome.Lisa.Pipeline.accepted
  in
  Lisa.Pipeline.enforce (Corpus.Case.program_at zk stage) book

let test_report_block_verdict () =
  let md = Lisa.Report.render (reports_at 2) in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("report has " ^ frag) true
        (Astring_contains.contains md frag))
    [
      "**BLOCK**";
      "## Rule ZK-1208";
      "**VIOLATION**";
      "VERIFIED";
      "`LearnerRequestProcessor.forwardCreate`";
      "sanity ok";
    ]

let test_report_pass_verdict () =
  let md = Lisa.Report.render (reports_at 3) in
  Alcotest.(check bool) "pass verdict" true (Astring_contains.contains md "**PASS**");
  Alcotest.(check bool) "no violations" false (Astring_contains.contains md "**VIOLATION**")

let test_report_uncovered_section () =
  (* a program with a target but no tests produces the developer-verdict
     section *)
  let p = Minilang.Parser.program "class C { method f() { work(); } } method work() { }" in
  let rule =
    Semantics.Rule.make ~rule_id:"r" ~description:"d" ~high_level:"h" ~origin:"o"
      (Semantics.Rule.State_guard
         {
           target = Semantics.Rule.Call_to { callee = "work"; in_method = None };
           condition = Smt.Formula.bvar "C.flag";
         })
  in
  let md = Lisa.Report.render [ Engine.Checker.check_rule p rule ] in
  Alcotest.(check bool) "uncovered section" true
    (Astring_contains.contains md "developer verdict needed")

(* algebraic properties of the complement check, over random formulas *)
let gen_formula : Smt.Formula.t QCheck.arbitrary =
  let open QCheck in
  let v = Smt.Formula.tvar in
  let atoms =
    [
      Smt.Formula.eq (v "x") (Smt.Formula.tint 1);
      Smt.Formula.lt (v "x") (Smt.Formula.tint 4);
      Smt.Formula.neq (v "s") Smt.Formula.tnull;
      Smt.Formula.bvar "s.closing";
      Smt.Formula.gt (v "ttl") (Smt.Formula.tint 0);
    ]
  in
  let leaf = Gen.oneofl (Smt.Formula.tru :: Smt.Formula.fls :: atoms) in
  let rec go n =
    if n <= 0 then leaf
    else
      Gen.oneof
        [
          leaf;
          Gen.map (fun f -> Smt.Formula.negate f) (go (n - 1));
          Gen.map2 (fun a b -> Smt.Formula.conj [ a; b ]) (go (n / 2)) (go (n / 2));
          Gen.map2 (fun a b -> Smt.Formula.disj [ a; b ]) (go (n / 2)) (go (n / 2));
        ]
  in
  make ~print:Smt.Formula.to_string (Gen.sized (fun n -> go (min n 5)))

let prop_self_check_verifies =
  QCheck.Test.make ~count:200 ~name:"pc = checker always verifies" gen_formula
    (fun f ->
      match Smt.Solver.check_trace ~pc:f ~checker:f with
      | Smt.Solver.Verified -> true
      | Smt.Solver.Violation _ | Smt.Solver.Undecided _ -> false)

let prop_true_pc_flags_nonvalid =
  QCheck.Test.make ~count:200 ~name:"empty pc verifies iff checker valid" gen_formula
    (fun f ->
      let verified =
        match Smt.Solver.check_trace ~pc:Smt.Formula.tru ~checker:f with
        | Smt.Solver.Verified -> true
        | Smt.Solver.Violation _ | Smt.Solver.Undecided _ -> false
      in
      verified = Smt.Solver.is_valid f)

let prop_stronger_pc_stays_verified =
  QCheck.Test.make ~count:200 ~name:"strengthening a verified pc keeps it verified"
    (QCheck.pair gen_formula gen_formula) (fun (pc_extra, checker) ->
      let pc = Smt.Formula.conj [ checker; pc_extra ] in
      match Smt.Solver.check_trace ~pc ~checker with
      | Smt.Solver.Verified -> true
      | Smt.Solver.Violation _ | Smt.Solver.Undecided _ -> false)

let prop_verified_means_entails =
  QCheck.Test.make ~count:200 ~name:"Verified iff pc entails checker"
    (QCheck.pair gen_formula gen_formula) (fun (pc, checker) ->
      let verified =
        match Smt.Solver.check_trace ~pc ~checker with
        | Smt.Solver.Verified -> true
        | Smt.Solver.Violation _ | Smt.Solver.Undecided _ -> false
      in
      verified = Smt.Solver.entails pc checker)

let suite =
  [
    ( "lisa.report",
      [
        Alcotest.test_case "block verdict" `Quick test_report_block_verdict;
        Alcotest.test_case "pass verdict" `Quick test_report_pass_verdict;
        Alcotest.test_case "uncovered section" `Quick test_report_uncovered_section;
      ] );
    ( "smt.complement_algebra",
      [
        QCheck_alcotest.to_alcotest prop_self_check_verifies;
        QCheck_alcotest.to_alcotest prop_true_pc_flags_nonvalid;
        QCheck_alcotest.to_alcotest prop_stronger_pc_stays_verified;
        QCheck_alcotest.to_alcotest prop_verified_means_entails;
      ] );
  ]
