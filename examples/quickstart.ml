(* Quickstart: the public API in one file.

   1. write a small "cloud system" in MiniJava;
   2. express a low-level semantic as a contract <P> s <>;
   3. assert it over every path with the concolic checker;
   4. read the verdicts.

   Run with: dune exec examples/quickstart.exe *)

let system =
  {|
class Account {
  field id: int;
  field frozen: bool = false;
  method init(id: int) {
    this.id = id;
  }
  method isFrozen(): bool {
    return this.frozen;
  }
}

class Bank {
  field accounts: map;
  field postings: int = 0;
  method open(a: Account) {
    mapPut(this.accounts, a.id, a);
  }
  method post(a: Account, amount: int) {
    this.postings = this.postings + 1;
  }
  // the guarded path: withdrawals check the frozen flag
  method withdraw(id: int, amount: int) {
    var a: Account = mapGet(this.accounts, id);
    if (a == null || a.isFrozen()) {
      throw "AccountUnavailableException";
    }
    this.post(a, amount);
  }
  // the regressed path: instant transfers skip the check
  method instantTransfer(id: int, amount: int) {
    var a: Account = mapGet(this.accounts, id);
    if (a == null) {
      throw "AccountUnavailableException";
    }
    this.post(a, amount);
  }
}

method test_withdraw_active_account() {
  var b: Bank = new Bank();
  b.open(new Account(1));
  b.withdraw(1, 100);
  assert (b.postings == 1, "withdrawal posted");
}

method test_transfer_active_account() {
  var b: Bank = new Bank();
  b.open(new Account(2));
  b.instantTransfer(2, 50);
  assert (b.postings == 1, "transfer posted");
}
|}

let () =
  (* 1. parse and sanity-check the system *)
  let program = Minilang.Parser.program ~file:"bank.mj" system in
  (match Minilang.Typecheck.check_program program with
  | [] -> ()
  | errs -> failwith (Minilang.Typecheck.errors_to_string errs));

  (* 2. the low-level semantic: nothing may be posted on a frozen (or
        missing) account.  Conditions speak about class-canonical state
        paths: the [Account] root is any account object on the path. *)
  let condition =
    Smt.Formula.conj
      [
        Smt.Formula.neq (Smt.Formula.tvar "Account") Smt.Formula.tnull;
        Smt.Formula.eq (Smt.Formula.tvar "Account.frozen") (Smt.Formula.tbool false);
      ]
  in
  let rule =
    Semantics.Rule.make ~rule_id:"bank.frozen"
      ~description:"no posting may reach a frozen or missing account"
      ~high_level:"frozen accounts reject all money movement"
      ~origin:"quickstart"
      (Semantics.Rule.State_guard
         {
           target = Semantics.Rule.Call_to { callee = "post"; in_method = None };
           condition;
         })
  in
  print_endline ("rule: " ^ Semantics.Rule.to_string rule);

  (* 3. assert it across all paths, driven by the system's own tests *)
  let report = Engine.Checker.check_rule program rule in
  print_endline ("summary: " ^ Engine.Checker.report_summary report);

  (* 4. verdicts *)
  List.iter
    (fun (t : Engine.Checker.trace_verdict) ->
      match t.Engine.Checker.tv_result with
      | Smt.Solver.Verified ->
          Fmt.pr "VERIFIED  %s (path condition: %s)@." t.Engine.Checker.tv_method
            (Smt.Formula.to_string t.Engine.Checker.tv_pc)
      | Smt.Solver.Violation model ->
          Fmt.pr "VIOLATION %s — a reachable state slips past the checks: %s@."
            t.Engine.Checker.tv_method
            (Smt.Solver.model_to_string model)
      | Smt.Solver.Undecided reason ->
          Fmt.pr "UNDECIDED %s — %s@." t.Engine.Checker.tv_method reason)
    report.Engine.Checker.rep_traces;

  (* the withdraw path verifies; instantTransfer misses the frozen check *)
  if report.Engine.Checker.rep_violations <> [] then
    print_endline "\nquickstart: LISA found the missing check before production did.";

  (* 5. and it can propose the fix: synthesize the guard, verify it *)
  match Lisa.Fix.propose program rule ~method_:"Bank.instantTransfer" with
  | None -> print_endline "no fix synthesized"
  | Some prop ->
      let v = Lisa.Fix.verify prop rule in
      Fmt.pr "@.proposed fix (%s):@.%s@."
        (if v.Lisa.Fix.fv_rule_clean && v.Lisa.Fix.fv_tests_green then
           "verified: rule clean, tests green"
         else "NOT verified")
        prop.Lisa.Fix.fp_diff
