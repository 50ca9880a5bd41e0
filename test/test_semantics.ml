(* Tests for the rule language, translation/normalization, rulebooks, and
   the developer DSL. *)

open Minilang

(* ------------------------------------------------------------------ *)
(* Translation (normalization)                                         *)
(* ------------------------------------------------------------------ *)

let method_env src meth =
  let p = Parser.program src in
  match Ast.methods_named p meth with
  | (cls_name, m) :: _ ->
      let cls =
        match cls_name with Some c -> Ast.find_class p c | None -> None
      in
      (p, Semantics.Translate.env_of_method p cls m, m)
  | [] -> Alcotest.fail ("no method " ^ meth)

let guard_of (m : Ast.method_decl) : Ast.expr =
  let found = ref None in
  Ast.iter_stmts
    (fun st -> match st.Ast.s with Ast.If (c, _, _) when !found = None -> found := Some c | _ -> ())
    m.Ast.m_body;
  Option.get !found

let src_session =
  {|
class Session {
  field closing: bool = false;
  field ttl: int = 30;
  method isClosing(): bool { return this.closing; }
}
class P {
  field tracker: map;
  method act(sessionId: int) {
    var session: Session = mapGet(this.tracker, sessionId);
    if (session == null || session.isClosing()) {
      throw "expired";
    }
    doWork(sessionId);
  }
}
method doWork(x: int) { }
|}

let test_translate_observer_inlining () =
  let _, env, m = method_env src_session "act" in
  match Semantics.Translate.guard_condition env ~early_exit:true (guard_of m) with
  | Some f ->
      (* session.isClosing() must normalize to the field path *)
      Alcotest.(check string)
        "condition" "(Session != null && Session.closing != true)"
        (Smt.Formula.to_string f)
  | None -> Alcotest.fail "translation failed"

let test_translate_class_canonical_roots () =
  let _, env, _ = method_env src_session "act" in
  let e = Parser.expression "session.ttl > 0" in
  match Semantics.Translate.formula_of env e with
  | Some f ->
      Alcotest.(check string) "local renamed by class" "Session.ttl > 0"
        (Smt.Formula.to_string f)
  | None -> Alcotest.fail "translation failed"

let test_translate_wrapper_guard_polarity () =
  let _, env, _ = method_env src_session "act" in
  let g = Parser.expression "session.ttl > 0" in
  (match Semantics.Translate.guard_condition env ~early_exit:false g with
  | Some f -> Alcotest.(check string) "wrapper keeps polarity" "Session.ttl > 0" (Smt.Formula.to_string f)
  | None -> Alcotest.fail "translation failed");
  match Semantics.Translate.guard_condition env ~early_exit:true g with
  | Some f ->
      Alcotest.(check string) "early-exit negates" "Session.ttl <= 0" (Smt.Formula.to_string f)
  | None -> Alcotest.fail "translation failed"

let test_translate_scalar_copy_propagation () =
  let src =
    {|
class D {
  field remaining: int = 10;
  method put(sz: int) {
    var room: int = this.remaining;
    if (sz > room) {
      throw "quota";
    }
    store(sz);
  }
}
method store(x: int) { }
|}
  in
  let _, env, m = method_env src "put" in
  match Semantics.Translate.guard_condition env ~early_exit:true (guard_of m) with
  | Some f ->
      (* the local [room] is a copy of this.remaining and must normalize
         to the field path *)
      Alcotest.(check string) "copy propagated" "sz <= D.remaining" (Smt.Formula.to_string f)
  | None -> Alcotest.fail "translation failed"

let test_translate_field_chain_by_class () =
  let src =
    {|
class Inner { field size: int = 0; }
class Outer {
  field inner: Inner;
  method init() { this.inner = new Inner(); }
  method check() {
    if (this.inner.size > 0) {
      work();
    }
  }
}
method work() { }
|}
  in
  let _, env, m = method_env src "check" in
  match Semantics.Translate.guard_condition env ~early_exit:false (guard_of m) with
  | Some f ->
      (* x.f with x : Inner names the path by Inner's class *)
      Alcotest.(check string) "chain canonical" "Inner.size > 0" (Smt.Formula.to_string f)
  | None -> Alcotest.fail "translation failed"

let test_translate_opaque_builtin () =
  let _, env, _ = method_env src_session "act" in
  let e = Parser.expression "mapContains(this.tracker, sessionId)" in
  match Semantics.Translate.formula_of env e with
  | Some f ->
      Alcotest.(check string) "opaque boolean named canonically"
        "mapContains(P.tracker, sessionId) == true"
        (Smt.Formula.to_string f)
  | None -> Alcotest.fail "translation failed"

(* ------------------------------------------------------------------ *)
(* Rules and rulebooks                                                 *)
(* ------------------------------------------------------------------ *)

let sample_rule ?(in_method = Some "P.act") () =
  Semantics.Rule.make ~rule_id:"r1" ~description:"d" ~high_level:"h" ~origin:"o"
    (Semantics.Rule.State_guard
       {
         target = Semantics.Rule.Call_to { callee = "doWork"; in_method };
         condition = Smt.Formula.bvar "x";
       })

let test_rule_generalize () =
  let r = sample_rule () in
  let g = Semantics.Rule.generalize r in
  (match Semantics.Rule.target g with
  | Some (Semantics.Rule.Call_to { in_method = None; _ }) -> ()
  | _ -> Alcotest.fail "generalize must drop the method restriction");
  (* idempotent on already-general rules *)
  Alcotest.(check bool) "idempotent" true (Semantics.Rule.generalize g = g)

let test_lock_rule_generalize_and_broaden () =
  let r =
    Semantics.Rule.make ~rule_id:"l1" ~description:"d" ~high_level:"h" ~origin:"o"
      (Semantics.Rule.Lock_discipline { scope = Semantics.Rule.Lock_specific "C.f" })
  in
  (match (Semantics.Rule.generalize r).Semantics.Rule.body with
  | Semantics.Rule.Lock_discipline { scope = Semantics.Rule.Lock_blocking } -> ()
  | _ -> Alcotest.fail "lock generalization");
  match (Semantics.Rule.broaden_naively r).Semantics.Rule.body with
  | Semantics.Rule.Lock_discipline { scope = Semantics.Rule.Lock_all_calls } -> ()
  | _ -> Alcotest.fail "naive broadening"

let test_rulebook_dedup () =
  let book = Semantics.Rulebook.create ~system:"s" in
  Semantics.Rulebook.add book (sample_rule ());
  Semantics.Rulebook.add book (sample_rule ());
  Alcotest.(check int) "no duplicates" 1 (Semantics.Rulebook.size book)

let test_resolve_targets () =
  let p = Parser.program src_session in
  let targets =
    Semantics.Rulebook.resolve_targets p
      (Semantics.Rule.Call_to { callee = "doWork"; in_method = None })
  in
  Alcotest.(check int) "one call site" 1 (List.length targets);
  let qname, st = List.hd targets in
  Alcotest.(check string) "in act" "P.act" qname;
  let scoped =
    Semantics.Rulebook.resolve_targets p
      (Semantics.Rule.Call_to { callee = "doWork"; in_method = Some "Nowhere.else" })
  in
  Alcotest.(check int) "scoped to absent method" 0 (List.length scoped);
  let by_text =
    Semantics.Rulebook.resolve_targets p
      (Semantics.Rule.Stmt_text (Pretty.stmt_head_to_string st))
  in
  Alcotest.(check int) "text target resolves" 1 (List.length by_text)

(* ------------------------------------------------------------------ *)
(* The developer DSL                                                   *)
(* ------------------------------------------------------------------ *)

let dsl_text =
  {|# comment
rule a.b:
  because "why"
  when calling createNode
  require Session != null && Session.closing == false

rule c.d:
  when calling put in Store.save
  require sz <= Store.remaining

rule e.f:
  forbid blocking under lock

rule g.h:
  forbid blocking under lock in C.m
|}

let test_dsl_parse () =
  let rules = Semantics.Dsl.parse dsl_text in
  Alcotest.(check int) "four rules" 4 (List.length rules);
  let r1 = List.nth rules 0 in
  Alcotest.(check string) "id" "a.b" r1.Semantics.Rule.rule_id;
  Alcotest.(check string) "because" "why" r1.Semantics.Rule.high_level;
  (match Semantics.Rule.condition r1 with
  | Some c ->
      Alcotest.(check string) "condition"
        "(Session != null && Session.closing == false)"
        (Smt.Formula.to_string c)
  | None -> Alcotest.fail "no condition");
  match (List.nth rules 3).Semantics.Rule.body with
  | Semantics.Rule.Lock_discipline { scope = Semantics.Rule.Lock_specific "C.m" } -> ()
  | _ -> Alcotest.fail "scoped lock rule"

let test_dsl_roundtrip () =
  let rules = Semantics.Dsl.parse dsl_text in
  let printed = Semantics.Dsl.print_rules rules in
  Alcotest.(check (list string)) "print/parse round-trip"
    (List.map Semantics.Rule.to_string rules)
    (List.map Semantics.Rule.to_string (Semantics.Dsl.parse printed))

let test_dsl_errors () =
  let expect_error text frag =
    match Semantics.Dsl.parse text with
    | _ -> Alcotest.fail ("expected parse error for: " ^ text)
    | exception Semantics.Dsl.Parse_error (m, _) ->
        Alcotest.(check bool) (frag ^ " in " ^ m) true (Astring_contains.contains m frag)
  in
  expect_error "rule x:\n  require y == 1" "without a 'when'";
  expect_error "rule x:\n  when calling f" "without a 'require'";
  expect_error "rule x:\n  nonsense here" "unrecognized directive";
  expect_error "require y == 1" "outside a rule block";
  expect_error "rule x:\n  when calling f\n  require mapGet(a, b)" "predicate fragment"

let test_dsl_rule_enforces () =
  (* a hand-written rule behaves exactly like a mined one *)
  let rules =
    Semantics.Dsl.parse
      {|rule eph:
  when calling createEphemeralNode
  require Session != null && Session.closing == false|}
  in
  let c = List.hd Corpus.Zookeeper.cases in
  let report =
    Engine.Checker.check_rule (Corpus.Case.program_at c 2) (List.hd rules)
  in
  Alcotest.(check bool) "violations found" true (report.Engine.Checker.rep_violations <> []);
  Alcotest.(check bool) "sanity ok" true report.Engine.Checker.rep_sanity_ok

let suite =
  [
    ( "semantics.translate",
      [
        Alcotest.test_case "observer inlining" `Quick test_translate_observer_inlining;
        Alcotest.test_case "class-canonical roots" `Quick test_translate_class_canonical_roots;
        Alcotest.test_case "guard polarity" `Quick test_translate_wrapper_guard_polarity;
        Alcotest.test_case "scalar copy propagation" `Quick test_translate_scalar_copy_propagation;
        Alcotest.test_case "field chains by class" `Quick test_translate_field_chain_by_class;
        Alcotest.test_case "opaque builtins" `Quick test_translate_opaque_builtin;
      ] );
    ( "semantics.rules",
      [
        Alcotest.test_case "generalize state guard" `Quick test_rule_generalize;
        Alcotest.test_case "generalize/broaden lock rule" `Quick
          test_lock_rule_generalize_and_broaden;
        Alcotest.test_case "rulebook dedup" `Quick test_rulebook_dedup;
        Alcotest.test_case "resolve targets" `Quick test_resolve_targets;
      ] );
    ( "semantics.dsl",
      [
        Alcotest.test_case "parse" `Quick test_dsl_parse;
        Alcotest.test_case "round-trip" `Quick test_dsl_roundtrip;
        Alcotest.test_case "errors" `Quick test_dsl_errors;
        Alcotest.test_case "hand-written rule enforces" `Quick test_dsl_rule_enforces;
      ] );
  ]
