(* Tests for the MiniJava frontend and interpreter. *)

open Minilang

let sample_source =
  {|
class Session {
  field id: int;
  field closing: bool = false;
  field ttl: int = 30;
  method init(id: int) {
    this.id = id;
  }
  method isClosing(): bool {
    return this.closing;
  }
}

class Tracker {
  field sessions: map;
  method addSession(s: Session) {
    mapPut(this.sessions, s.id, s);
  }
  method touchSession(sessionId: int): bool {
    var s: Session = mapGet(this.sessions, sessionId);
    if (s == null) {
      return false;
    }
    return true;
  }
}

method makeTracker(): Tracker {
  var t: Tracker = new Tracker();
  return t;
}

method test_touch_existing() {
  var t: Tracker = makeTracker();
  var s: Session = new Session(7);
  t.addSession(s);
  assert (t.touchSession(7), "existing session touches");
  assert (!t.touchSession(8), "missing session does not touch");
}
|}

let parse_sample () = Parser.program ~file:"sample.mj" sample_source

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "if (x == 1) { return; }" in
  let kinds = List.map (fun (t : Lexer.located) -> t.tok) toks in
  Alcotest.(check int) "token count" 11 (List.length kinds);
  (match kinds with
  | Token.KW_IF :: Token.LPAREN :: Token.IDENT "x" :: Token.EQ :: _ -> ()
  | _ -> Alcotest.fail "unexpected token sequence");
  match List.rev kinds with
  | Token.EOF :: _ -> ()
  | _ -> Alcotest.fail "missing EOF"

let test_lexer_comments () =
  let toks = Lexer.tokenize "x // line comment\n/* block\ncomment */ y" in
  let idents =
    List.filter_map
      (fun (t : Lexer.located) ->
        match t.tok with Token.IDENT s -> Some s | _ -> None)
      toks
  in
  Alcotest.(check (list string)) "idents survive comments" [ "x"; "y" ] idents

let test_lexer_string_escapes () =
  let toks = Lexer.tokenize {|"a\nb\"c"|} in
  match toks with
  | { tok = Token.STRING s; _ } :: _ ->
      Alcotest.(check string) "escapes decoded" "a\nb\"c" s
  | _ -> Alcotest.fail "expected string token"

let test_lexer_locations () =
  let toks = Lexer.tokenize "x\n  y" in
  match toks with
  | [ a; b; _eof ] ->
      Alcotest.(check int) "x line" 1 a.Lexer.loc.Loc.line;
      Alcotest.(check int) "y line" 2 b.Lexer.loc.Loc.line;
      Alcotest.(check int) "y col" 3 b.Lexer.loc.Loc.col
  | _ -> Alcotest.fail "expected three tokens"

let test_lexer_error () =
  match Lexer.tokenize "x # y" with
  | _ -> Alcotest.fail "expected lexer error"
  | exception Lexer.Error (_, loc) -> Alcotest.(check int) "error column" 3 loc.Loc.col

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_sample () =
  let p = parse_sample () in
  Alcotest.(check int) "classes" 2 (List.length p.Ast.p_classes);
  Alcotest.(check int) "functions" 2 (List.length p.Ast.p_funcs);
  let tracker =
    match Ast.find_class p "Tracker" with Some c -> c | None -> Alcotest.fail "no Tracker"
  in
  Alcotest.(check int) "tracker methods" 2 (List.length tracker.Ast.c_methods)

let test_parse_precedence () =
  let e = Parser.expression "a + b * c == d && e || f" in
  Alcotest.(check string)
    "precedence" "a + b * c == d && e || f" (Pretty.expr_to_string e);
  match e.Ast.e with
  | Ast.Binop (Ast.Or, _, _) -> ()
  | _ -> Alcotest.fail "top must be ||"

let test_parse_unary_chain () =
  let e = Parser.expression "!!x" in
  match e.Ast.e with
  | Ast.Unop (Ast.Not, { e = Ast.Unop (Ast.Not, _); _ }) -> ()
  | _ -> Alcotest.fail "expected !!x"

let test_parse_method_chain () =
  let e = Parser.expression "a.b.c(1).d" in
  match e.Ast.e with
  | Ast.Field ({ e = Ast.Method_call ({ e = Ast.Field _; _ }, "c", [ _ ]); _ }, "d") -> ()
  | _ -> Alcotest.fail "expected chained postfix"

let test_parse_else_if () =
  let p =
    Parser.program
      "method f(x: int): int { if (x == 1) { return 1; } else if (x == 2) { return 2; } else { return 3; } }"
  in
  let f = match Ast.find_func p "f" with Some f -> f | None -> Alcotest.fail "no f" in
  match f.Ast.m_body with
  | [ { s = Ast.If (_, _, [ { s = Ast.If (_, _, [ _ ]); _ } ]); _ } ] -> ()
  | _ -> Alcotest.fail "else-if shape wrong"

let test_parse_error_location () =
  match Parser.program "method f() { if x { } }" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Error (msg, _) ->
      Alcotest.(check bool) "mentions expected token" true
        (Astring_contains.contains msg "expected '('")

let test_sid_stability () =
  let p1 = parse_sample () in
  let p2 = parse_sample () in
  let sids p =
    List.concat_map
      (fun (_, m) -> List.map (fun (s : Ast.stmt) -> s.Ast.sid) (Ast.stmts_of_method m))
      (Ast.methods_of_program p)
  in
  Alcotest.(check (list int)) "sids deterministic" (sids p1) (sids p2);
  let all = sids p1 in
  let sorted = List.sort_uniq compare all in
  Alcotest.(check int) "sids unique" (List.length all) (List.length sorted)

(* ------------------------------------------------------------------ *)
(* Pretty-printer round-trip                                           *)
(* ------------------------------------------------------------------ *)

let rec strip_expr (e : Ast.expr) : Ast.expr = { Ast.e = strip_expr_kind e.Ast.e; eloc = Loc.dummy }

and strip_expr_kind = function
  | Ast.Int_lit n -> Ast.Int_lit n
  | Ast.Bool_lit b -> Ast.Bool_lit b
  | Ast.Str_lit s -> Ast.Str_lit s
  | Ast.Null_lit -> Ast.Null_lit
  | Ast.Var x -> Ast.Var x
  | Ast.This -> Ast.This
  | Ast.Field (o, f) -> Ast.Field (strip_expr o, f)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, strip_expr a, strip_expr b)
  | Ast.Unop (op, a) -> Ast.Unop (op, strip_expr a)
  | Ast.Call (f, args) -> Ast.Call (f, List.map strip_expr args)
  | Ast.Method_call (o, m, args) -> Ast.Method_call (strip_expr o, m, List.map strip_expr args)
  | Ast.New (c, args) -> Ast.New (c, List.map strip_expr args)

let test_program_roundtrip () =
  let p = parse_sample () in
  let printed = Pretty.program_to_string p in
  let p2 = Parser.program printed in
  let printed2 = Pretty.program_to_string p2 in
  Alcotest.(check string) "fixpoint after one print/parse cycle" printed printed2

(* ------------------------------------------------------------------ *)
(* Typechecker                                                         *)
(* ------------------------------------------------------------------ *)

let test_typecheck_clean () =
  let p = parse_sample () in
  let errs = Typecheck.check_program p in
  Alcotest.(check string) "no errors" "" (Typecheck.errors_to_string errs)

let check_errors src expected_fragments =
  let p = Parser.program src in
  let errs = Typecheck.check_program p in
  let text = Typecheck.errors_to_string errs in
  List.iter
    (fun frag ->
      if not (Astring_contains.contains text frag) then
        Alcotest.fail (Fmt.str "expected error mentioning %S, got: %s" frag text))
    expected_fragments

let test_typecheck_unbound_var () =
  check_errors "method f() { x = 1; }" [ "unbound variable x" ]

let test_typecheck_unknown_function () =
  check_errors "method f() { nosuch(); }" [ "unknown function nosuch" ]

let test_typecheck_bad_field () =
  check_errors
    "class C { field a: int; } method f() { var c: C = new C(); c.b = 1; }"
    [ "no field b" ]

let test_typecheck_arity () =
  check_errors "method g(x: int) { } method f() { g(1, 2); }" [ "expects 1 args" ]

let test_typecheck_builtin_arity () =
  check_errors "method f() { mapGet(mapNew()); }" [ "expects 2 args" ]

let test_typecheck_scalar_mismatch () =
  check_errors "method f() { var x: int = 1 + true; }" [ "'+' applied to" ]

let test_typecheck_break_outside_loop () =
  check_errors "method f() { break; }" [ "break outside loop" ]

let test_typecheck_scoping () =
  (* declarations inside a block do not leak out *)
  check_errors "method f() { if (true) { var x: int = 1; } x = 2; }"
    [ "unbound variable x" ]

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let run_expr_fn body =
  let src = Fmt.str "method main(): any { %s }" body in
  let p = Parser.program src in
  let _, v = Interp.run_function p "main" [] in
  v

let test_interp_arith () =
  Alcotest.(check bool) "arith" true
    (Value.equal (run_expr_fn "return (1 + 2 * 3 - 4) / 3;") (Value.V_int 1))

let test_interp_string_concat () =
  Alcotest.(check bool) "concat" true
    (Value.equal (run_expr_fn {|return "a" + "b" + toStr(3);|}) (Value.V_str "ab3"))

let test_interp_short_circuit () =
  (* the 'fail' must not run because of && short-circuit *)
  let v = run_expr_fn {|if (false && mapContains(null, 1)) { return 1; } return 2;|} in
  Alcotest.(check bool) "short circuit" true (Value.equal v (Value.V_int 2))

let test_interp_while_sum () =
  let v =
    run_expr_fn
      "var i: int = 0; var acc: int = 0; while (i < 10) { i = i + 1; acc = acc + i; } return acc;"
  in
  Alcotest.(check bool) "sum 1..10" true (Value.equal v (Value.V_int 55))

let test_interp_break_continue () =
  let v =
    run_expr_fn
      "var i: int = 0; var acc: int = 0; while (true) { i = i + 1; if (i > 5) { break; } if (i % 2 == 0) { continue; } acc = acc + i; } return acc;"
  in
  (* 1 + 3 + 5 = 9 *)
  Alcotest.(check bool) "break/continue" true (Value.equal v (Value.V_int 9))

let test_interp_objects () =
  let p = parse_sample () in
  match Interp.run_test p "test_touch_existing" with
  | Interp.Passed -> ()
  | Interp.Failed m | Interp.Errored m -> Alcotest.fail m

let test_interp_maps_lists () =
  let v =
    run_expr_fn
      {|var m: map = mapNew();
        mapPut(m, "a", 1);
        mapPut(m, "b", 2);
        mapPut(m, "a", 3);
        var l: list = mapKeys(m);
        return mapSize(m) * 100 + listSize(l) * 10 + mapGet(m, "a");|}
  in
  Alcotest.(check bool) "map semantics" true (Value.equal v (Value.V_int 223))

let test_interp_throw_catch () =
  let v =
    run_expr_fn
      {|try { fail("boom"); return 1; } catch (e) { if (e == "boom") { return 2; } return 3; }|}
  in
  Alcotest.(check bool) "throw/catch" true (Value.equal v (Value.V_int 2))

let test_interp_uncaught_throw () =
  let p = Parser.program {|method test_boom() { fail("kaput"); }|} in
  match Interp.run_test p "test_boom" with
  | Interp.Errored m ->
      Alcotest.(check bool) "mentions payload" true (Astring_contains.contains m "kaput")
  | Interp.Passed | Interp.Failed _ -> Alcotest.fail "expected error outcome"

let test_interp_assert_failure () =
  let p = Parser.program {|method test_bad() { assert (1 == 2, "math is broken"); }|} in
  match Interp.run_test p "test_bad" with
  | Interp.Failed m ->
      Alcotest.(check bool) "message kept" true (Astring_contains.contains m "math is broken")
  | Interp.Passed | Interp.Errored _ -> Alcotest.fail "expected failed outcome"

let test_interp_null_deref () =
  let p = Parser.program {|method test_npe() { var s: any = null; s.f = 1; }|} in
  match Interp.run_test p "test_npe" with
  | Interp.Errored m ->
      Alcotest.(check bool) "null deref reported" true
        (Astring_contains.contains m "null dereference")
  | Interp.Passed | Interp.Failed _ -> Alcotest.fail "expected error"

let test_interp_fuel () =
  let p = Parser.program "method test_spin() { while (true) { var x: int = 1; } }" in
  let config = { Interp.default_config with Interp.fuel = 1000 } in
  match Interp.run_test ~config p "test_spin" with
  | Interp.Errored m ->
      Alcotest.(check bool) "fuel exhaustion" true (Astring_contains.contains m "fuel")
  | Interp.Passed | Interp.Failed _ -> Alcotest.fail "expected fuel error"

let test_interp_lock_events () =
  let src =
    {|
class Store {
  field data: map;
  method save(x: int) {
    synchronized (this) {
      writeRecord(x);
    }
  }
}
method main() {
  var s: Store = new Store();
  s.save(42);
}
|}
  in
  let p = Parser.program src in
  let run = Symexec.Concolic.run p "main" in
  let blocking =
    List.map
      (fun (e : Symexec.Concolic.blocking_event) ->
        (e.Symexec.Concolic.be_op, e.Symexec.Concolic.be_locks))
      run.Symexec.Concolic.r_blocking
  in
  Alcotest.(check (list (pair string int)))
    "blocking under one lock"
    [ ("writeRecord", 1) ]
    blocking

let test_interp_sync_releases_on_throw () =
  let src =
    {|
class Store {
  method bad() {
    synchronized (this) {
      fail("inner");
    }
  }
}
method main(): int {
  var s: Store = new Store();
  try { s.bad(); } catch (e) { }
  // if the lock leaked, a second sync would still work (reentrant model),
  // so instead we observe the monitors held afterwards
  return 0;
}
|}
  in
  let p = Parser.program src in
  let st, _ = Interp.run_function p "main" [] in
  Alcotest.(check (list int)) "no monitor held after the throw" [] st.Interp.locks

let test_interp_deterministic () =
  let p = parse_sample () in
  let run () =
    let st, v = Interp.run_function p "makeTracker" [] in
    (Value.to_string ~heap:st.Interp.heap v, st.Interp.clock)
  in
  Alcotest.(check (pair string int)) "deterministic" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let gen_expr : Ast.expr QCheck.arbitrary =
  let open QCheck in
  let leaf =
    Gen.oneof
      [
        Gen.map (fun n -> Ast.mk_expr (Ast.Int_lit (abs n mod 1000))) Gen.small_int;
        Gen.map (fun b -> Ast.mk_expr (Ast.Bool_lit b)) Gen.bool;
        Gen.return (Ast.mk_expr Ast.Null_lit);
        Gen.map
          (fun i -> Ast.mk_expr (Ast.Var (Printf.sprintf "v%d" (abs i mod 5))))
          Gen.small_int;
        Gen.return (Ast.mk_expr Ast.This);
      ]
  in
  let rec expr_gen n =
    if n <= 0 then leaf
    else
      Gen.oneof
        [
          leaf;
          Gen.map2
            (fun (op, a) b -> Ast.mk_expr (Ast.Binop (op, a, b)))
            (Gen.pair
               (Gen.oneofl
                  [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.And; Ast.Or ])
               (expr_gen (n / 2)))
            (expr_gen (n / 2));
          Gen.map (fun a -> Ast.mk_expr (Ast.Unop (Ast.Not, a))) (expr_gen (n - 1));
          Gen.map (fun a -> Ast.mk_expr (Ast.Field (a, "f"))) (expr_gen (n - 1));
          Gen.map2
            (fun a b -> Ast.mk_expr (Ast.Method_call (a, "m", [ b ])))
            (expr_gen (n / 2))
            (expr_gen (n / 2));
        ]
  in
  make ~print:(fun e -> Pretty.expr_to_string e) (Gen.sized (fun n -> expr_gen (min n 8)))

let prop_expr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"pretty/parse expression round-trip" gen_expr
    (fun e ->
      let printed = Pretty.expr_to_string e in
      let reparsed = Parser.expression printed in
      strip_expr reparsed = strip_expr e)

let prop_tokenize_print_stable =
  QCheck.Test.make ~count:300 ~name:"expression printing is a fixpoint" gen_expr
    (fun e ->
      let p1 = Pretty.expr_to_string e in
      let p2 = Pretty.expr_to_string (Parser.expression p1) in
      String.equal p1 p2)

let suite =
  [
    ( "minilang.lexer",
      [
        Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
        Alcotest.test_case "comments" `Quick test_lexer_comments;
        Alcotest.test_case "string escapes" `Quick test_lexer_string_escapes;
        Alcotest.test_case "locations" `Quick test_lexer_locations;
        Alcotest.test_case "error location" `Quick test_lexer_error;
      ] );
    ( "minilang.parser",
      [
        Alcotest.test_case "sample program" `Quick test_parse_sample;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "unary chain" `Quick test_parse_unary_chain;
        Alcotest.test_case "postfix chain" `Quick test_parse_method_chain;
        Alcotest.test_case "else-if" `Quick test_parse_else_if;
        Alcotest.test_case "error messages" `Quick test_parse_error_location;
        Alcotest.test_case "sid stability" `Quick test_sid_stability;
        Alcotest.test_case "program roundtrip" `Quick test_program_roundtrip;
      ] );
    ( "minilang.typecheck",
      [
        Alcotest.test_case "clean program" `Quick test_typecheck_clean;
        Alcotest.test_case "unbound variable" `Quick test_typecheck_unbound_var;
        Alcotest.test_case "unknown function" `Quick test_typecheck_unknown_function;
        Alcotest.test_case "bad field" `Quick test_typecheck_bad_field;
        Alcotest.test_case "arity" `Quick test_typecheck_arity;
        Alcotest.test_case "builtin arity" `Quick test_typecheck_builtin_arity;
        Alcotest.test_case "scalar mismatch" `Quick test_typecheck_scalar_mismatch;
        Alcotest.test_case "break outside loop" `Quick test_typecheck_break_outside_loop;
        Alcotest.test_case "block scoping" `Quick test_typecheck_scoping;
      ] );
    ( "minilang.interp",
      [
        Alcotest.test_case "arithmetic" `Quick test_interp_arith;
        Alcotest.test_case "string concat" `Quick test_interp_string_concat;
        Alcotest.test_case "short circuit" `Quick test_interp_short_circuit;
        Alcotest.test_case "while sum" `Quick test_interp_while_sum;
        Alcotest.test_case "break/continue" `Quick test_interp_break_continue;
        Alcotest.test_case "objects" `Quick test_interp_objects;
        Alcotest.test_case "maps and lists" `Quick test_interp_maps_lists;
        Alcotest.test_case "throw/catch" `Quick test_interp_throw_catch;
        Alcotest.test_case "uncaught throw" `Quick test_interp_uncaught_throw;
        Alcotest.test_case "assert failure" `Quick test_interp_assert_failure;
        Alcotest.test_case "null deref" `Quick test_interp_null_deref;
        Alcotest.test_case "fuel" `Quick test_interp_fuel;
        Alcotest.test_case "lock events" `Quick test_interp_lock_events;
        Alcotest.test_case "sync releases on throw" `Quick test_interp_sync_releases_on_throw;
        Alcotest.test_case "determinism" `Quick test_interp_deterministic;
      ] );
    ( "minilang.properties",
      [
        QCheck_alcotest.to_alcotest prop_expr_roundtrip;
        QCheck_alcotest.to_alcotest prop_tokenize_print_stable;
      ] );
  ]
