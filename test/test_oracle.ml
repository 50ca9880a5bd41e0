(* Tests for the inference backend (the LLM substitute), the TF-IDF
   embedding model, RAG test selection, prompts and the noise model. *)

let zk_case = List.hd Corpus.Zookeeper.cases

let zk_ticket () = Corpus.Case.original_ticket zk_case

(* ------------------------------------------------------------------ *)
(* Tickets and prompts                                                 *)
(* ------------------------------------------------------------------ *)

let test_ticket_diff_is_real () =
  let t = zk_ticket () in
  let d = Oracle.Ticket.diff t in
  (* the ZK-1208 patch extends the null guard with the closing check *)
  Alcotest.(check bool) "diff removes old guard" true
    (Astring_contains.contains d "-    if (s == null) {");
  Alcotest.(check bool) "diff adds new guard" true
    (Astring_contains.contains d "+    if (s == null || s.isClosing()) {")

let test_ticket_regression_tests_listed () =
  let t = zk_ticket () in
  Alcotest.(check (list string))
    "regression test recorded"
    [ "test_zk1208_create_on_closing_session_rejected" ]
    t.Oracle.Ticket.regression_tests

let test_prompt_structure () =
  let p = Oracle.Prompt.build (zk_ticket ()) in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("prompt contains " ^ frag) true
        (Astring_contains.contains p frag))
    [
      "extracts violated low-level semantics";
      "INPUT 1: failure description";
      "INPUT 2: code patch";
      "INPUT 3: source code after the patch";
      "high_level_semantics";
      "condition_statement";
    ];
  Alcotest.(check bool) "token estimate positive" true (Oracle.Prompt.token_estimate p > 100)

(* ------------------------------------------------------------------ *)
(* Inference                                                           *)
(* ------------------------------------------------------------------ *)

let test_inference_recovers_paper_rule () =
  let inf = Oracle.Inference.infer (zk_ticket ()) in
  Alcotest.(check int) "one rule" 1 (List.length inf.Oracle.Inference.inf_rules);
  let r = List.hd inf.Oracle.Inference.inf_rules in
  (* the recovered rule is the paper's:
     <session.isClosing == false> createEphemeralNode <> (plus non-null) *)
  (match r.Semantics.Rule.body with
  | Semantics.Rule.State_guard { target; condition } ->
      (match target with
      | Semantics.Rule.Call_to { callee; in_method = Some m } ->
          Alcotest.(check string) "callee" "createEphemeralNode" callee;
          Alcotest.(check string) "method" "PrepRequestProcessor.pRequest2TxnCreate" m
      | _ -> Alcotest.fail "expected a method-scoped call target");
      let c = Smt.Formula.to_string condition in
      Alcotest.(check bool) ("condition has null check: " ^ c) true
        (Astring_contains.contains c "Session != null");
      Alcotest.(check bool) ("condition has closing check: " ^ c) true
        (Astring_contains.contains c "Session.closing != true")
  | Semantics.Rule.Lock_discipline _ -> Alcotest.fail "expected a state guard");
  (* high-level semantics comes from the discussion's first sentence *)
  Alcotest.(check bool) "high-level mentions CLOSING" true
    (Astring_contains.contains inf.Oracle.Inference.inf_high_level "CLOSING")

let test_inference_deterministic () =
  let a = Oracle.Inference.infer (zk_ticket ()) in
  let b = Oracle.Inference.infer (zk_ticket ()) in
  Alcotest.(check (list string)) "same rules"
    (List.map Semantics.Rule.to_string a.Oracle.Inference.inf_rules)
    (List.map Semantics.Rule.to_string b.Oracle.Inference.inf_rules)

let test_inference_lock_case () =
  let t = Corpus.Case.original_ticket (List.nth Corpus.Zookeeper.cases 1) in
  let inf = Oracle.Inference.infer t in
  let locks = List.filter Semantics.Rule.is_lock_rule inf.Oracle.Inference.inf_rules in
  Alcotest.(check bool) "at least one lock rule" true (locks <> []);
  match (List.hd locks).Semantics.Rule.body with
  | Semantics.Rule.Lock_discipline { scope = Semantics.Rule.Lock_specific m } ->
      Alcotest.(check string) "scoped to serializeNode" "SyncRequestProcessor.serializeNode" m
  | _ -> Alcotest.fail "expected a method-specific lock rule"

let test_inference_json_shape () =
  let inf = Oracle.Inference.infer (zk_ticket ()) in
  let json = Oracle.Inference.to_json inf in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("json has " ^ frag) true (Astring_contains.contains json frag))
    [ {|"high_level_semantics"|}; {|"low_level_semantics"|}; {|"target_statement"|};
      {|"condition_statement"|}; {|"reasoning"|} ]

let test_inference_reasoning_anchored () =
  (* the prompt-tuning finding: reasoning links the guard to the intent *)
  let inf = Oracle.Inference.infer (zk_ticket ()) in
  Alcotest.(check bool) "reasoning nonempty" true (inf.Oracle.Inference.inf_reasoning <> []);
  Alcotest.(check bool) "reasoning mentions the added guard" true
    (List.exists
       (fun r -> Astring_contains.contains r "the patch added guard")
       inf.Oracle.Inference.inf_reasoning)

(* ------------------------------------------------------------------ *)
(* Noise model                                                         *)
(* ------------------------------------------------------------------ *)

let test_noise_deterministic () =
  let noise = { Oracle.Inference.epsilon = 0.9; seed = 11 } in
  let a = Oracle.Inference.infer ~noise (zk_ticket ()) in
  let b = Oracle.Inference.infer ~noise (zk_ticket ()) in
  Alcotest.(check (list string)) "seeded noise is reproducible"
    (List.map Semantics.Rule.to_string a.Oracle.Inference.inf_rules)
    (List.map Semantics.Rule.to_string b.Oracle.Inference.inf_rules)

let test_noise_zero_is_identity () =
  let noise = { Oracle.Inference.epsilon = 0.0; seed = 99 } in
  let a = Oracle.Inference.infer ~noise (zk_ticket ()) in
  let b = Oracle.Inference.infer (zk_ticket ()) in
  Alcotest.(check (list string)) "epsilon 0 = clean inference"
    (List.map Semantics.Rule.to_string a.Oracle.Inference.inf_rules)
    (List.map Semantics.Rule.to_string b.Oracle.Inference.inf_rules)

let test_noise_high_epsilon_corrupts () =
  (* with epsilon 1.0 every rule is corrupted for some seed *)
  let corrupted_somewhere =
    List.exists
      (fun seed ->
        let noise = { Oracle.Inference.epsilon = 1.0; seed } in
        let inf = Oracle.Inference.infer ~noise (zk_ticket ()) in
        List.exists
          (fun (r : Semantics.Rule.t) ->
            let id = r.Semantics.Rule.rule_id in
            Astring_contains.contains id ".weak"
            || Astring_contains.contains id ".flip"
            || Astring_contains.contains id ".ghost")
          inf.Oracle.Inference.inf_rules)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "corruption visible at epsilon 1" true corrupted_somewhere

(* ------------------------------------------------------------------ *)
(* TF-IDF and test selection                                           *)
(* ------------------------------------------------------------------ *)

let docs =
  [
    { Oracle.Tfidf.doc_id = "t1"; text = "create ephemeral node closing session" };
    { Oracle.Tfidf.doc_id = "t2"; text = "serialize snapshot under lock writeRecord" };
    { Oracle.Tfidf.doc_id = "t3"; text = "quota exceeded write rejected" };
  ]

let test_tfidf_selects_related () =
  let ix = Oracle.Tfidf.build docs in
  match Oracle.Tfidf.top_k ix ~query:"ephemeral session create" ~k:1 with
  | [ (id, score) ] ->
      Alcotest.(check string) "best doc" "t1" id;
      Alcotest.(check bool) "positive score" true (score > 0.0)
  | _ -> Alcotest.fail "expected one result"

let test_tfidf_cosine_bounds () =
  let ix = Oracle.Tfidf.build docs in
  List.iter
    (fun (_, score) ->
      Alcotest.(check bool) "cosine within [0,1+eps]" true (score >= 0.0 && score <= 1.0001))
    (Oracle.Tfidf.top_k ix ~query:"snapshot lock serialize" ~k:3)

let test_tfidf_self_similarity () =
  let ix = Oracle.Tfidf.build docs in
  match Oracle.Tfidf.top_k ix ~query:(List.hd docs).Oracle.Tfidf.text ~k:3 with
  | (best, score) :: _ ->
      Alcotest.(check string) "self is best" "t1" best;
      Alcotest.(check bool) "self similarity high" true (score > 0.9)
  | [] -> Alcotest.fail "no results"

let test_tfidf_oov_query () =
  let ix = Oracle.Tfidf.build docs in
  List.iter
    (fun (_, score) -> Alcotest.(check (float 0.0001)) "OOV query scores 0" 0.0 score)
    (Oracle.Tfidf.top_k ix ~query:"zzz qqq www" ~k:3)

let prop_tfidf_cosine_symmetric =
  QCheck.Test.make ~count:100 ~name:"cosine is symmetric"
    (QCheck.pair (QCheck.small_list QCheck.printable_string) (QCheck.small_list QCheck.printable_string))
    (fun (ws1, ws2) ->
      let ix = Oracle.Tfidf.build docs in
      let a = Oracle.Tfidf.embed ix (String.concat " " ws1) in
      let b = Oracle.Tfidf.embed ix (String.concat " " ws2) in
      abs_float (Oracle.Tfidf.cosine a b -. Oracle.Tfidf.cosine b a) < 1e-9)

let test_rag_selection_on_corpus () =
  (* the RAG selection for the ephemeral rule must prefer the ephemeral
     tests over the serializer tests when both are present *)
  let c = zk_case in
  let p =
    Minilang.Parser.program
      (c.Corpus.Case.source 2 ^ "\n" ^ (List.nth Corpus.Zookeeper.cases 1).Corpus.Case.source 1)
  in
  let inf = Oracle.Inference.infer (zk_ticket ()) in
  let rule = List.hd inf.Oracle.Inference.inf_rules in
  let g = Analysis.Callgraph.build p in
  let targets = Semantics.Rulebook.resolve_targets p (Option.get (Semantics.Rule.target (Semantics.Rule.generalize rule))) in
  let tree = Analysis.Paths.exec_tree p g (snd (List.hd targets)).Minilang.Ast.sid in
  let sels = Oracle.Test_select.select p rule tree ~k:3 in
  let names = Oracle.Test_select.selected_tests sels in
  Alcotest.(check bool) "selected some tests" true (names <> []);
  Alcotest.(check bool)
    ("top selections are ephemeral tests: " ^ String.concat "," names)
    true
    (List.for_all
       (fun n -> Astring_contains.contains n "eph" || Astring_contains.contains n "zk1208")
       (List.filteri (fun i _ -> i < 2) names))

(* Every rule x execution tree a scan of [registry] prepares: the
   learned book of each system against each of its scan versions. *)
let rule_trees (registry : Corpus.Registry.t) =
  List.concat_map
    (fun system ->
      let book = Lisa.System_scan.learn_system_book ~registry system in
      List.concat_map
        (fun version ->
          let p = Corpus.Registry.program_of registry system ~version in
          let g = Analysis.Callgraph.build p in
          List.concat_map
            (fun (rule : Semantics.Rule.t) ->
              match Semantics.Rule.target rule with
              | None -> []
              | Some target ->
                  List.map
                    (fun (_, (st : Minilang.Ast.stmt)) ->
                      (p, rule, Analysis.Paths.exec_tree p g st.Minilang.Ast.sid))
                    (Semantics.Rulebook.resolve_targets p target))
            (Semantics.Rulebook.rules book))
        registry.Corpus.Registry.scan_versions)
    registry.Corpus.Registry.systems

(* the selection [select] makes, over an index built afresh *)
let reference_select p rule (tree : Analysis.Paths.exec_tree) ~k =
  let ix = Oracle.Test_select.index_of_tests p in
  List.map
    (fun ep ->
      {
        Oracle.Test_select.sel_path = ep;
        sel_tests =
          Oracle.Tfidf.top_k ix ~query:(Oracle.Test_select.query_of_path rule ep) ~k;
      })
    tree.Analysis.Paths.et_paths

let test_memoized_select_matches_fresh_index () =
  let registries =
    [ Corpus.Registry.builtin; Corpus.Synth.registry ~seed:42 ~scale:1 () ]
  in
  let checked = ref 0 in
  List.iter
    (fun registry ->
      List.iter
        (fun (p, (rule : Semantics.Rule.t), tree) ->
          incr checked;
          Alcotest.(check bool)
            (rule.Semantics.Rule.rule_id ^ " selection")
            true
            (Oracle.Test_select.select p rule tree ~k:4
            = reference_select p rule tree ~k:4))
        (rule_trees registry))
    registries;
  Alcotest.(check bool) "some trees checked" true (!checked > 0)

(* selecting over p1, p2, p1 in turn: the second p1 selection is p1's
   own, not the index left behind by p2 *)
let test_memo_never_serves_a_stale_index () =
  let p1, rule, tree =
    List.hd (rule_trees Corpus.Registry.builtin)
  in
  let p2 = Corpus.Case.program_at (List.nth Corpus.Hbase.cases 0) 1 in
  let first = Oracle.Test_select.select p1 rule tree ~k:4 in
  let other = Oracle.Test_select.select p2 rule tree ~k:4 in
  let again = Oracle.Test_select.select p1 rule tree ~k:4 in
  Alcotest.(check bool) "p2 selects differently" true (other <> first);
  Alcotest.(check bool) "p2 selection is p2's own" true
    (other = reference_select p2 rule tree ~k:4);
  Alcotest.(check bool) "p1 selection unchanged" true (again = first)

let test_random_selection_seeded () =
  let p = Corpus.Case.program_at zk_case 2 in
  let a = Oracle.Test_select.select_random p ~seed:3 ~k:2 in
  let b = Oracle.Test_select.select_random p ~seed:3 ~k:2 in
  Alcotest.(check (list string)) "seeded random stable" a b;
  Alcotest.(check int) "k respected" 2 (List.length a)

let suite =
  [
    ( "oracle.ticket",
      [
        Alcotest.test_case "diff is real" `Quick test_ticket_diff_is_real;
        Alcotest.test_case "regression tests listed" `Quick test_ticket_regression_tests_listed;
        Alcotest.test_case "prompt structure" `Quick test_prompt_structure;
      ] );
    ( "oracle.inference",
      [
        Alcotest.test_case "recovers the paper rule" `Quick test_inference_recovers_paper_rule;
        Alcotest.test_case "deterministic" `Quick test_inference_deterministic;
        Alcotest.test_case "lock case" `Quick test_inference_lock_case;
        Alcotest.test_case "json shape" `Quick test_inference_json_shape;
        Alcotest.test_case "reasoning anchored" `Quick test_inference_reasoning_anchored;
      ] );
    ( "oracle.noise",
      [
        Alcotest.test_case "deterministic" `Quick test_noise_deterministic;
        Alcotest.test_case "zero epsilon" `Quick test_noise_zero_is_identity;
        Alcotest.test_case "high epsilon corrupts" `Quick test_noise_high_epsilon_corrupts;
      ] );
    ( "oracle.tfidf",
      [
        Alcotest.test_case "selects related" `Quick test_tfidf_selects_related;
        Alcotest.test_case "cosine bounds" `Quick test_tfidf_cosine_bounds;
        Alcotest.test_case "self similarity" `Quick test_tfidf_self_similarity;
        Alcotest.test_case "out-of-vocabulary query" `Quick test_tfidf_oov_query;
        QCheck_alcotest.to_alcotest prop_tfidf_cosine_symmetric;
        Alcotest.test_case "RAG prefers related tests" `Quick test_rag_selection_on_corpus;
        Alcotest.test_case "seeded random selection" `Quick test_random_selection_seeded;
      ] );
    ( "oracle.test_index",
      [
        Alcotest.test_case "memoized select == fresh index" `Quick
          test_memoized_select_matches_fresh_index;
        Alcotest.test_case "p1, p2, p1: no stale index" `Quick
          test_memo_never_serves_a_stale_index;
      ] );
  ]
