(* Cross-cutting integration tests: multi-ticket learning, the persistent
   interpreter API, pretty-printer statement forms, and checker behaviour
   on the enriched whole-system programs. *)

open Minilang

let zk = List.hd Corpus.Zookeeper.cases

(* ------------------------------------------------------------------ *)
(* Multi-ticket learning                                               *)
(* ------------------------------------------------------------------ *)

let test_learning_accumulates () =
  let book, outcomes =
    Lisa.Pipeline.learn_all ~system:"zookeeper" (Corpus.Case.tickets zk)
  in
  Alcotest.(check int) "two outcomes" 2 (List.length outcomes);
  Alcotest.(check int) "two rules in the book" 2 (Semantics.Rulebook.size book);
  (* the accumulated book is clean on the final stage and flags stage 2 *)
  let flag stage =
    Lisa.Pipeline.findings (Lisa.Pipeline.enforce (Corpus.Case.program_at zk stage) book)
  in
  Alcotest.(check bool) "stage 2 flagged" true (flag 2 <> []);
  Alcotest.(check (list string)) "stage 3 clean" []
    (List.map
       (fun (r : Engine.Checker.rule_report) -> r.rep_rule.Semantics.Rule.rule_id)
       (flag 3))

let test_second_rule_duplicates_first_semantics () =
  (* both tickets of the ephemeral case teach the same semantic, so the
     second rule's condition is equivalent to the first's *)
  let rules_of t =
    (Lisa.Pipeline.learn t).Lisa.Pipeline.accepted
    |> List.filter_map Semantics.Rule.condition
  in
  match
    (rules_of (Corpus.Case.original_ticket zk), List.map rules_of (Corpus.Case.tickets zk))
  with
  | [ c1 ], [ _; [ c2 ] ] ->
      Alcotest.(check bool) "conditions equivalent" true (Smt.Solver.equivalent c1 c2)
  | _ -> Alcotest.fail "unexpected rule shapes"

(* ------------------------------------------------------------------ *)
(* Persistent interpreter API                                          *)
(* ------------------------------------------------------------------ *)

let test_interp_call_persists_heap () =
  let p =
    Parser.program
      {|
class Counter {
  field n: int = 0;
}
method fresh(): Counter {
  return new Counter();
}
method bump(c: Counter) {
  c.n = c.n + 1;
}
method read(c: Counter): int {
  return c.n;
}
|}
  in
  let st = Interp.create p in
  let c = Interp.call st "fresh" [] in
  ignore (Interp.call st "bump" [ c ]);
  ignore (Interp.call st "bump" [ c ]);
  match Interp.call st "read" [ c ] with
  | Value.V_int 2 -> ()
  | v -> Alcotest.fail ("expected 2, got " ^ Value.to_string v)

let test_interp_call_unknown_function () =
  let p = Parser.program "method f() { }" in
  let st = Interp.create p in
  match Interp.call st "nope" [] with
  | _ -> Alcotest.fail "expected error"
  | exception Interp.Runtime_error (m, _) ->
      Alcotest.(check bool) "names the function" true (Astring_contains.contains m "nope")

(* ------------------------------------------------------------------ *)
(* Pretty-printer statement forms                                      *)
(* ------------------------------------------------------------------ *)

let head_of src =
  let p = Parser.program (Fmt.str "method f(x: int, l: list) { %s }" src) in
  match p.Ast.p_funcs with
  | [ { m_body = st :: _; _ } ] -> Pretty.stmt_head_to_string st
  | _ -> Alcotest.fail "no statement"

let test_stmt_heads () =
  Alcotest.(check string) "decl" "var y: int = x + 1;" (head_of "var y: int = x + 1;");
  Alcotest.(check string) "if head" "if (x > 0) { ... }" (head_of "if (x > 0) { return; }");
  Alcotest.(check string) "if-else head" "if (x > 0) { ... } else { ... }"
    (head_of "if (x > 0) { return; } else { return; }");
  Alcotest.(check string) "while head" "while (x > 0) { ... }"
    (head_of "while (x > 0) { x = x - 1; }");
  Alcotest.(check string) "sync head" "synchronized (l) { ... }"
    (head_of "synchronized (l) { x = 1; }");
  Alcotest.(check string) "throw" {|throw "boom";|} (head_of {|throw "boom";|});
  Alcotest.(check string) "assert" {|assert (x > 0, "positive");|}
    (head_of {|assert (x > 0, "positive");|})

(* head text is what target matching uses, so it must be stable under a
   print/parse cycle *)
let test_stmt_head_stable () =
  let c = zk in
  let p = Corpus.Case.program_at c 3 in
  let reprinted = Parser.program (Pretty.program_to_string p) in
  let heads prog =
    List.concat_map
      (fun (_, m) -> List.map Pretty.stmt_head_to_string (Ast.stmts_of_method m))
      (Ast.methods_of_program prog)
  in
  Alcotest.(check (list string)) "heads stable" (heads p) (heads reprinted)

(* ------------------------------------------------------------------ *)
(* Whole-system checking details                                       *)
(* ------------------------------------------------------------------ *)

let test_uncovered_paths_on_whole_system () =
  (* rules checked against the whole system report uncovered static paths
     when a feature's tests do not reach a cross-feature target; with the
     corpus conventions every target is covered *)
  let book = Lisa.System_scan.learn_system_book "zookeeper" in
  let p = Corpus.Registry.program_of Corpus.Registry.builtin "zookeeper" ~version:3 in
  let reports = Lisa.Pipeline.enforce p book in
  List.iter
    (fun (r : Engine.Checker.rule_report) ->
      if Semantics.Rule.is_state_guard r.Engine.Checker.rep_rule then begin
        Alcotest.(check bool)
          (r.Engine.Checker.rep_rule.Semantics.Rule.rule_id ^ " has targets")
          true
          (r.Engine.Checker.rep_targets > 0);
        Alcotest.(check bool)
          (r.Engine.Checker.rep_rule.Semantics.Rule.rule_id ^ " sanity")
          true r.Engine.Checker.rep_sanity_ok
      end)
    reports

let test_report_on_whole_system_renders () =
  let book = Lisa.System_scan.learn_system_book "hdfs" in
  let p = Corpus.Registry.program_of Corpus.Registry.builtin "hdfs" ~version:2 in
  let md = Lisa.Report.render (Lisa.Pipeline.enforce p book) in
  Alcotest.(check bool) "block verdict" true (Astring_contains.contains md "**BLOCK**");
  Alcotest.(check bool) "multiple rule sections" true
    (Astring_contains.contains md "## Rule HDFS-13924"
    && Astring_contains.contains md "## Rule HDFS-14273")

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "learning accumulates" `Quick test_learning_accumulates;
        Alcotest.test_case "second ticket teaches same semantics" `Quick
          test_second_rule_duplicates_first_semantics;
        Alcotest.test_case "interp call persists heap" `Quick test_interp_call_persists_heap;
        Alcotest.test_case "interp call unknown function" `Quick
          test_interp_call_unknown_function;
        Alcotest.test_case "statement heads" `Quick test_stmt_heads;
        Alcotest.test_case "statement heads stable" `Quick test_stmt_head_stable;
        Alcotest.test_case "whole-system coverage" `Slow test_uncovered_paths_on_whole_system;
        Alcotest.test_case "whole-system report renders" `Slow
          test_report_on_whole_system_renders;
      ] );
  ]
