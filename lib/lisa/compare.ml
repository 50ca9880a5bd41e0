(** Experiment E3 — Figure 4: testing vs. LISA vs. refinement verification.

    For every corpus case we replay the moment after the first incident was
    fixed and ask: does each strategy prevent the *second* incident (the
    stage-2 regression)?

    - {b testing}: re-run the regression tests added with fix #1 against
      the regressed version (what CI actually does).  Effort: the tests
      the developers already wrote.
    - {b LISA}: enforce the rulebook learned from ticket #1.  Effort:
      automatic inference + the concolic paths checked.
    - {b refinement verification}: a full forward proof would catch every
      violation by construction; its (modeled) effort is the
      specification+proof burden, which the literature puts at 5-10x the
      implementation size, re-paid on every non-trivial change.  We model
      it as [spec_factor * loc] lines of proof per version — the point of
      Figure 4 is precisely that this cost is why it isn't deployed. *)

type strategy_result = {
  s_caught : bool;
  s_effort : float;  (** strategy-specific effort proxy *)
  s_detail : string;
}

type case_row = {
  cr_case : string;
  cr_system : string;
  cr_testing : strategy_result;
  cr_lisa : strategy_result;
  cr_verification : strategy_result;
}

type t = {
  rows : case_row list;
  testing_caught : int;
  lisa_caught : int;
  verification_caught : int;
  total : int;
}

let spec_factor = 7.0 (* proof lines per implementation line (modeled) *)

let loc_of (src : string) : int = List.length (String.split_on_char '\n' src)

let testing_strategy (c : Corpus.Case.t) : strategy_result =
  let ticket = Corpus.Case.original_ticket c in
  let regressed = Corpus.Case.program_at c 2 in
  let tests = ticket.Oracle.Ticket.regression_tests in
  let caught =
    List.exists
      (fun t ->
        match Minilang.Interp.run_test regressed t with
        | Minilang.Interp.Passed -> false
        | Minilang.Interp.Failed _ | Minilang.Interp.Errored _ -> true)
      tests
  in
  {
    s_caught = caught;
    s_effort = float_of_int (List.length tests);
    s_detail =
      Fmt.str "%d regression test(s) from %s re-run" (List.length tests)
        ticket.Oracle.Ticket.ticket_id;
  }

let lisa_strategy ?(config = Pipeline.default_config) (c : Corpus.Case.t) :
    strategy_result =
  let ticket = Corpus.Case.original_ticket c in
  let outcome = Pipeline.learn ~config ticket in
  let book =
    Semantics.Rulebook.of_rules ~system:c.Corpus.Case.system outcome.Pipeline.accepted
  in
  let reports = Pipeline.enforce ~config (Corpus.Case.program_at c 2) book in
  let findings = Pipeline.findings reports in
  let paths =
    List.fold_left (fun n (r : Engine.Checker.rule_report) -> n + r.rep_static_paths) 0 reports
  in
  {
    s_caught = findings <> [];
    s_effort = float_of_int (max 1 paths);
    s_detail =
      Fmt.str "%d rule(s), %d execution paths checked"
        (Semantics.Rulebook.size book) paths;
  }

let verification_strategy (c : Corpus.Case.t) : strategy_result =
  let loc = loc_of (c.Corpus.Case.source 2) in
  {
    s_caught = true;
    s_effort = spec_factor *. float_of_int loc;
    s_detail = Fmt.str "modeled: ~%.0f proof lines for %d LoC, re-proved per change" (spec_factor *. float_of_int loc) loc;
  }

let run ?(config = Pipeline.default_config)
    ?(registry = Corpus.Registry.builtin) () : t =
  let rows =
    List.map
      (fun (c : Corpus.Case.t) ->
        {
          cr_case = c.Corpus.Case.case_id;
          cr_system = c.Corpus.Case.system;
          cr_testing = testing_strategy c;
          cr_lisa = lisa_strategy ~config c;
          cr_verification = verification_strategy c;
        })
      registry.Corpus.Registry.cases
  in
  let count f = List.length (List.filter f rows) in
  {
    rows;
    testing_caught = count (fun r -> r.cr_testing.s_caught);
    lisa_caught = count (fun r -> r.cr_lisa.s_caught);
    verification_caught = count (fun r -> r.cr_verification.s_caught);
    total = List.length rows;
  }

let print (t : t) : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  pf "E3 / Figure 4 — who catches the second incident?";
  pf "--------------------------------------------------";
  pf "%-28s %-10s %-18s %-24s %-14s" "case" "system" "testing" "LISA" "verification";
  List.iter
    (fun r ->
      let cell (s : strategy_result) label =
        Fmt.str "%s (%s=%.0f)" (if s.s_caught then "caught" else "MISSED") label s.s_effort
      in
      pf "%-28s %-10s %-18s %-24s %-14s" r.cr_case r.cr_system
        (cell r.cr_testing "tests")
        (cell r.cr_lisa "paths")
        (cell r.cr_verification "proof"))
    t.rows;
  pf "";
  pf "regressions caught: testing %d/%d, LISA %d/%d, verification %d/%d (modeled)"
    t.testing_caught t.total t.lisa_caught t.total t.verification_caught t.total;
  pf "";
  pf "reading of Figure 4: testing validates single executions (sparse coverage);";
  pf "refinement proofs give full guarantees at %.0fx-implementation proof cost;"
    spec_factor;
  pf "LISA's low-level semantics sit in between: automatic, path-complete for the";
  pf "learned contracts, no proof burden.";
  Buffer.contents buf
