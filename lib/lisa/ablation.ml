(** Experiment E8 — mechanism ablations over all guard cases.

    Three knobs from §3.2, each compared against the paper's default:

    - {b branch pruning}: record only branches whose guards involve
      relevant variables vs. record everything;
    - {b test selection}: RAG similarity search vs. the full suite vs. a
      seeded pseudo-random subset;
    - {b check method}: the complement-formula check vs. the naive direct
      check (which treats missing conditions as satisfied). *)

type variant = {
  v_name : string;
  v_config : Engine.Checker.config;
}

let variants : variant list =
  [
    { v_name = "default (prune+RAG+complement)"; v_config = Engine.Checker.default_config };
    { v_name = "no pruning"; v_config = { Engine.Checker.default_config with prune = false } };
    {
      v_name = "all tests (no RAG)";
      v_config = { Engine.Checker.default_config with selection = All_tests };
    };
    {
      v_name = "random tests (k=2)";
      v_config =
        {
          Engine.Checker.default_config with
          Engine.Checker.selection = Engine.Checker.Pseudo_random { seed = 42; k = 2 };
        };
    };
    {
      v_name = "direct check (no complement)";
      v_config = { Engine.Checker.default_config with method_ = Direct };
    };
  ]

type row = {
  r_variant : string;
  r_regressions_caught : int;  (** of the guard cases *)
  r_total_guard_cases : int;
  r_tests_run : int;
  r_branches_recorded : int;
  r_branches_total : int;
  r_uncovered_paths : int;
}

let guard_cases ?(registry = Corpus.Registry.builtin) () =
  List.filter
    (fun (c : Corpus.Case.t) -> c.Corpus.Case.kind = Corpus.Case.Guard)
    registry.Corpus.Registry.cases

let run_variant ?registry (v : variant) : row =
  let cases = guard_cases ?registry () in
  let caught = ref 0 in
  let tests = ref 0 in
  let recorded = ref 0 in
  let total = ref 0 in
  let uncovered = ref 0 in
  List.iter
    (fun (c : Corpus.Case.t) ->
      let ticket = Corpus.Case.original_ticket c in
      let pconfig = { Pipeline.default_config with Pipeline.checker = v.v_config } in
      let outcome = Pipeline.learn ~config:pconfig ticket in
      let book =
        Semantics.Rulebook.of_rules ~system:c.Corpus.Case.system outcome.Pipeline.accepted
      in
      let reports = Pipeline.enforce ~config:pconfig (Corpus.Case.program_at c 2) book in
      if Pipeline.findings reports <> [] then incr caught;
      List.iter
        (fun (r : Engine.Checker.rule_report) ->
          tests := !tests + List.length r.Engine.Checker.rep_tests_run;
          recorded := !recorded + r.Engine.Checker.rep_branches_recorded;
          total := !total + r.Engine.Checker.rep_branches_total;
          uncovered := !uncovered + List.length r.Engine.Checker.rep_uncovered_paths)
        reports)
    cases;
  {
    r_variant = v.v_name;
    r_regressions_caught = !caught;
    r_total_guard_cases = List.length cases;
    r_tests_run = !tests;
    r_branches_recorded = !recorded;
    r_branches_total = !total;
    r_uncovered_paths = !uncovered;
  }

let run ?registry () : row list = List.map (run_variant ?registry) variants

let print (rows : row list) : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  pf "E8 — mechanism ablations (guard cases, regression stage)";
  pf "---------------------------------------------------------";
  pf "%-32s %8s %7s %10s %10s %10s" "variant" "caught" "tests" "recorded" "branches"
    "uncovered";
  List.iter
    (fun r ->
      pf "%-32s %5d/%-2d %7d %10d %10d %10d" r.r_variant r.r_regressions_caught
        r.r_total_guard_cases r.r_tests_run r.r_branches_recorded r.r_branches_total
        r.r_uncovered_paths)
    rows;
  pf "";
  pf "expected shape: pruning cuts recorded branches without losing catches;";
  pf "random test selection loses catches through missed paths (more uncovered);";
  pf "the direct check misses every missing-check regression.";
  Buffer.contents buf
