(* Tests for the concolic engine: shadow naming, path-condition recording,
   short-circuit precision, pruning, target hits, and the end-to-end
   ZooKeeper-shaped scenario from the paper. *)

open Minilang
open Symexec

(* A miniature ZooKeeper: the patched path checks both null and closing;
   the regressed path (touchAndCreate) checks only null — exactly the
   ZK-1208 / ZK-1496 shape from Figure 3. *)
let zk_like_source =
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

class DataTree {
  field nodes: map;
  method createEphemeralNode(path: str, owner: int) {
    mapPut(this.nodes, path, owner);
  }
}

class Processor {
  field sessions: map;
  field tree: DataTree;
  method init() {
    this.tree = new DataTree();
  }
  method addSession(s: Session) {
    mapPut(this.sessions, s.id, s);
  }
  // patched path: full guard
  method createRequest(sessionId: int, path: str) {
    var s: Session = mapGet(this.sessions, sessionId);
    if (s == null || s.isClosing()) {
      throw "SessionExpiredException";
    }
    this.tree.createEphemeralNode(path, sessionId);
  }
  // regressed path: missing the closing check
  method touchAndCreate(sessionId: int, path: str) {
    var s: Session = mapGet(this.sessions, sessionId);
    if (s == null) {
      return;
    }
    this.tree.createEphemeralNode(path, sessionId);
  }
}

method test_create_on_live_session() {
  var p: Processor = new Processor();
  var s: Session = new Session(1);
  p.addSession(s);
  p.createRequest(1, "/services/a");
}

method test_create_on_closing_session_rejected() {
  var p: Processor = new Processor();
  var s: Session = new Session(1);
  p.addSession(s);
  s.closing = true;
  try { p.createRequest(1, "/services/a"); } catch (e) { }
}

method test_touch_path_live() {
  var p: Processor = new Processor();
  var s: Session = new Session(1);
  p.addSession(s);
  p.touchAndCreate(1, "/services/b");
}

method test_touch_path_closing() {
  var p: Processor = new Processor();
  var s: Session = new Session(1);
  p.addSession(s);
  s.closing = true;
  p.touchAndCreate(1, "/services/b");
}
|}

let program () = Parser.program ~file:"zk_like.mj" zk_like_source

(* find the sids of statements calling createEphemeralNode *)
let target_sids p =
  List.concat_map
    (fun (_, m) ->
      List.filter_map
        (fun (st : Ast.stmt) ->
          if List.mem "createEphemeralNode" (Ast.callees_of_stmt st) then Some st.Ast.sid
          else None)
        (Ast.stmts_of_method m))
    (Ast.methods_of_program p)

let config p =
  {
    Concolic.default_config with
    Concolic.targets = target_sids p;
    relevant_roots = [ "Session" ];
  }

let run_test_name p name = Concolic.run ~config:(config p) p name

let test_hit_on_guarded_path () =
  let p = program () in
  let r = run_test_name p "test_create_on_live_session" in
  (match r.Concolic.r_outcome with
  | Interp.Passed -> ()
  | Interp.Failed m | Interp.Errored m -> Alcotest.fail m);
  Alcotest.(check int) "one target hit" 1 (List.length r.Concolic.r_hits);
  let h = List.hd r.Concolic.r_hits in
  let pc = Smt.Formula.to_string (Concolic.hit_pc_formula h) in
  (* the guarded path must record both the null check and the closing check *)
  Alcotest.(check bool) ("pc mentions Session != null: " ^ pc) true
    (Astring_contains.contains pc "Session != null");
  Alcotest.(check bool) ("pc mentions closing: " ^ pc) true
    (Astring_contains.contains pc "Session.closing == false")

let test_no_hit_when_rejected () =
  let p = program () in
  let r = run_test_name p "test_create_on_closing_session_rejected" in
  Alcotest.(check int) "no target hit" 0 (List.length r.Concolic.r_hits)

let test_hit_on_missing_check_path () =
  let p = program () in
  let r = run_test_name p "test_touch_path_live" in
  Alcotest.(check int) "one hit" 1 (List.length r.Concolic.r_hits);
  let h = List.hd r.Concolic.r_hits in
  let pc = Smt.Formula.to_string (Concolic.hit_pc_formula h) in
  Alcotest.(check bool) ("pc mentions null check: " ^ pc) true
    (Astring_contains.contains pc "Session != null");
  Alcotest.(check bool) ("pc must NOT mention closing: " ^ pc) false
    (Astring_contains.contains pc "closing")

let test_buggy_path_executes_on_closing_session () =
  (* the regression actually fires: ephemeral node created on closing session *)
  let p = program () in
  let r = run_test_name p "test_touch_path_closing" in
  Alcotest.(check int) "hit happens even though session closing" 1
    (List.length r.Concolic.r_hits)

let test_complement_check_flags_missing_path () =
  let p = program () in
  let checker =
    Smt.Formula.conj
      [
        Smt.Formula.neq (Smt.Formula.tvar "Session") Smt.Formula.tnull;
        Smt.Formula.eq (Smt.Formula.tvar "Session.closing") (Smt.Formula.tbool false);
      ]
  in
  let good = run_test_name p "test_create_on_live_session" in
  let bad = run_test_name p "test_touch_path_live" in
  let verdict r =
    Smt.Solver.check_trace
      ~pc:(Concolic.hit_pc_formula (List.hd r.Concolic.r_hits))
      ~checker
  in
  (match verdict good with
  | Smt.Solver.Verified -> ()
  | Smt.Solver.Violation m ->
      Alcotest.fail ("guarded path flagged: " ^ Smt.Solver.model_to_string m)
      | Smt.Solver.Undecided reason -> Alcotest.fail ("unexpected undecided: " ^ reason));
  match verdict bad with
  | Smt.Solver.Violation _ -> ()
  | Smt.Solver.Verified -> Alcotest.fail "missing-check path not flagged"
  | Smt.Solver.Undecided reason -> Alcotest.fail ("unexpected undecided: " ^ reason)

let test_pruning_reduces_recorded_branches () =
  let p = program () in
  let pruned = Concolic.run ~config:(config p) p "test_create_on_live_session" in
  let unpruned =
    Concolic.run
      ~config:{ (config p) with Concolic.prune = false }
      p "test_create_on_live_session"
  in
  Alcotest.(check bool) "recorded <= total" true
    (pruned.Concolic.r_branches_recorded <= pruned.Concolic.r_branches_total);
  Alcotest.(check bool) "pruning records no more than unpruned" true
    (pruned.Concolic.r_branches_recorded <= unpruned.Concolic.r_branches_recorded)

let test_short_circuit_precision () =
  (* when s == null short-circuits the || guard, the closing atom must not
     appear in the recorded fact *)
  let src =
    {|
class Session {
  field closing: bool = false;
  method isClosing(): bool { return this.closing; }
}
class P {
  method check(s: Session): bool {
    if (s == null || s.isClosing()) {
      return false;
    }
    return true;
  }
}
method test_null() {
  var p: P = new P();
  var n: Session = null;
  var r: bool = p.check(n);
  assert (!r, "null rejected");
}
|}
  in
  let p = Parser.program src in
  (* target: the 'return true;' statement *)
  let target =
    let found = ref None in
    List.iter
      (fun (_, m) ->
        List.iter
          (fun (st : Ast.stmt) ->
            match st.Ast.s with
            | Ast.Return (Some { e = Ast.Bool_lit true; _ }) -> found := Some st.Ast.sid
            | _ -> ())
          (Ast.stmts_of_method m))
      (Ast.methods_of_program p);
    Option.get !found
  in
  let config =
    { Concolic.default_config with Concolic.targets = [ target ]; relevant_roots = [ "Session" ] }
  in
  let r = Concolic.run ~config p "test_null" in
  (* target never reached on the null path; and the recorded facts must not
     mention closing *)
  Alcotest.(check int) "no hits" 0 (List.length r.Concolic.r_hits);
  Alcotest.(check Alcotest.pass) "ran" () ()

let test_decisions_recorded_per_frame () =
  let p = program () in
  let r = run_test_name p "test_create_on_live_session" in
  let h = List.hd r.Concolic.r_hits in
  (* the enclosing frame is createRequest: exactly one if-decision, taken=false *)
  Alcotest.(check int) "one decision" 1 (List.length h.Concolic.h_decisions);
  let _, taken = List.hd h.Concolic.h_decisions in
  Alcotest.(check bool) "guard not taken" false taken

let test_blocking_events () =
  let src =
    {|
class Store {
  field data: map;
  method save() {
    synchronized (this) {
      writeRecord(1);
    }
  }
  method load() {
    readRecord(2);
  }
}
method test_io() {
  var s: Store = new Store();
  s.save();
  s.load();
}
|}
  in
  let p = Parser.program src in
  let r = Concolic.run p "test_io" in
  let events =
    List.map (fun (b : Concolic.blocking_event) -> (b.Concolic.be_op, b.Concolic.be_locks)) r.Concolic.r_blocking
  in
  Alcotest.(check (list (pair string int)))
    "blocking events with lock depth"
    [ ("writeRecord", 1); ("readRecord", 0) ]
    events

(* the clock must advance under blocking builtins in both engines *)
let clock_source =
  {|
method test_clock() {
  var a: int = now();
  sleepMs(100);
  assert(now() - a >= 100, "sleepMs advances the clock");
}
|}

let test_concolic_agrees_with_interp () =
  (* both engines classify every test identically: the sample above, the
     clock probe, every test of every stage of every builtin case, and
     every test of the seed-42 1x synth registry *)
  Lisa.Chaos.reset_shared_state ();
  let to_s = function
    | Interp.Passed -> "passed"
    | Interp.Failed _ -> "failed"
    | Interp.Errored _ -> "errored"
  in
  let agree label p =
    List.iter
      (fun name ->
        let concrete = Interp.run_test p name in
        let concolic = (Concolic.run p name).Concolic.r_outcome in
        Alcotest.(check string) (label ^ " " ^ name) (to_s concrete) (to_s concolic))
      (Interp.test_names p)
  in
  let clock = Parser.program clock_source in
  Alcotest.(check string) "clock probe passes concretely" "passed"
    (to_s (Interp.run_test clock "test_clock"));
  agree "zk_like" (program ());
  agree "clock" clock;
  let agree_cases (reg : Corpus.Registry.t) =
    List.iter
      (fun (c : Corpus.Case.t) ->
        for stage = 0 to c.Corpus.Case.n_stages - 1 do
          agree
            (Printf.sprintf "%s@%d" c.Corpus.Case.case_id stage)
            (Corpus.Case.program_at c stage)
        done)
      reg.Corpus.Registry.cases
  in
  agree_cases Corpus.Registry.builtin;
  agree_cases (Corpus.Synth.registry ~seed:42 ~scale:1 ())

(* shadows ARE interned terms now: no mirror type, no conversion, and
   equality is physical *)
let test_sym_is_interned_term () =
  let a = Sym.var "Session.closing" in
  let b = Smt.Formula.tvar "Session.closing" in
  Alcotest.(check bool) "Sym.var = Formula.tvar, physically" true (a == b);
  Alcotest.(check string) "same rendering" (Smt.Formula.term_to_string b)
    (Sym.to_string a);
  Alcotest.(check bool) "as_var round-trips" true
    (Sym.as_var a = Some "Session.closing")

let suite =
  [
    ( "symexec.concolic",
      [
        Alcotest.test_case "shadow is the interned term" `Quick
          test_sym_is_interned_term;
        Alcotest.test_case "hit on guarded path" `Quick test_hit_on_guarded_path;
        Alcotest.test_case "no hit when rejected" `Quick test_no_hit_when_rejected;
        Alcotest.test_case "hit on missing-check path" `Quick test_hit_on_missing_check_path;
        Alcotest.test_case "regression fires" `Quick test_buggy_path_executes_on_closing_session;
        Alcotest.test_case "complement check flags missing path" `Quick
          test_complement_check_flags_missing_path;
        Alcotest.test_case "pruning reduces recording" `Quick
          test_pruning_reduces_recorded_branches;
        Alcotest.test_case "short-circuit precision" `Quick test_short_circuit_precision;
        Alcotest.test_case "frame decisions" `Quick test_decisions_recorded_per_frame;
        Alcotest.test_case "blocking events" `Quick test_blocking_events;
        Alcotest.test_case "agrees with concrete interpreter" `Quick
          test_concolic_agrees_with_interp;
      ] );
  ]
