(** Rule enforcement: assert a low-level semantic over a program version.

    For a state-guard rule [<P> s <>] the checker follows §3.2 end to end:

    1. resolve the target spec to concrete statements of this version;
    2. build the call graph and the execution tree rooted at each target;
    3. select concrete inputs: the RAG test selection over the program's
       own test suite (or all tests / a seeded pseudo-random subset, for
       the ablation);
    4. run the concolic engine with relevant-variable pruning and snapshot
       the path condition at every target arrival;
    5. judge each snapshot with the SMT complement check;
    6. report uncovered static paths ("the test suite does not have enough
       coverage, or the LLM misses the related tests — developers should
       provide the final verdict").

    Lock-discipline rules are checked both statically (lock-scope
    analysis) and dynamically (blocking events under held monitors).

    The check is split into two phases so the enforcement engine
    ({!Scheduler}) can treat them differently: {!prepare} runs the cheap
    static analyses (steps 1–3) whose outputs also determine the job's
    cache key, and {!execute} runs the expensive dynamic part (steps 4–6)
    — the unit of work the engine parallelizes and memoizes.
    [check_rule] composes the two and behaves exactly like the historic
    single-shot checker. *)

open Minilang

type test_selection =
  | Rag of int  (** top-k similarity selection (the paper's approach) *)
  | All_tests
  | Pseudo_random of { seed : int; k : int }

type check_method = Complement | Direct

type config = {
  selection : test_selection;
  prune : bool;
  method_ : check_method;
  fuel : int;
}

let default_config =
  {
    selection = Rag 4;
    prune = true;
    method_ = Complement;
    fuel = 200_000;
  }

(* A stable rendering of the knobs that influence enforcement results;
   part of the engine's cache key. *)
let config_tag (c : config) : string =
  let sel =
    match c.selection with
    | Rag k -> Fmt.str "rag%d" k
    | All_tests -> "all"
    | Pseudo_random { seed; k } -> Fmt.str "rnd%d.%d" seed k
  in
  Fmt.str "%s|%b|%s|%d" sel c.prune
    (match c.method_ with Complement -> "comp" | Direct -> "direct")
    c.fuel

(** One judged trace (a target arrival). *)
type trace_verdict = {
  tv_target_sid : int;
  tv_method : string;
  tv_entry : string;  (** driving test *)
  tv_pc : Smt.Formula.t;
  tv_result : Smt.Solver.trace_check;
  tv_state : (string * Smt.Formula.value) list;
      (** concrete valuation of the checker condition's variables observed
          at the target arrival (witness-replay triage evidence) *)
}

type lock_finding = {
  lf_method : string;
  lf_op : string;
  lf_static : bool;  (** found statically (vs. observed dynamically) *)
  lf_sid : int;
}

type rule_report = {
  rep_rule : Semantics.Rule.t;
  rep_targets : int;  (** resolved target statements *)
  rep_static_paths : int;  (** paths in the execution trees *)
  rep_tests_run : string list;
  rep_traces : trace_verdict list;
  rep_violations : trace_verdict list;  (** subset of traces *)
  rep_verified : trace_verdict list;
  rep_uncovered_paths : string list;  (** rendered exec paths never observed *)
  rep_lock_findings : lock_finding list;
  rep_sanity_ok : bool;
      (** at least one verified trace exists — the "fixed paths act as our
          sanity check" requirement of §3.2 (state-guard rules only) *)
  rep_branches_total : int;
  rep_branches_recorded : int;
  rep_undecided : trace_verdict list;
      (** subset of traces the solver could not judge (node budget hit,
          circuit open, injected budget fault) *)
  rep_degraded : string list;
      (** degradation reasons: why this report may under-approximate the
          truth — skipped/out-of-fuel concolic runs, undecided solver
          verdicts, quarantined jobs.  Empty on a healthy run. *)
}

let has_violations (r : rule_report) =
  r.rep_violations <> [] || r.rep_lock_findings <> []

(** A report that may under-approximate the truth: some of its evidence
    was lost to budget exhaustion, open breakers, or quarantine.  A
    degraded report without violations is "pass with an asterisk", never
    a clean pass. *)
let is_degraded (r : rule_report) = r.rep_degraded <> []

(* runs whose outcome means "evidence lost", not "program misbehaved" *)
let degraded_run_reasons (runs : Symexec.Concolic.run_result list) :
    string list =
  List.filter_map
    (fun (r : Symexec.Concolic.run_result) ->
      Option.map
        (fun lost ->
          Fmt.str "concolic %s: %s" r.Symexec.Concolic.r_entry
            (Symexec.Concolic.lost_to_string lost))
        r.Symexec.Concolic.r_lost)
    runs

(** Placeholder report for a rule whose job exhausted its retries: no
    evidence either way, the reason on record.  [rep_sanity_ok] is false
    — a quarantined rule must never read as a verified one. *)
let quarantined_report (rule : Semantics.Rule.t) ~(reason : string) :
    rule_report =
  {
    rep_rule = rule;
    rep_targets = 0;
    rep_static_paths = 0;
    rep_tests_run = [];
    rep_traces = [];
    rep_violations = [];
    rep_verified = [];
    rep_uncovered_paths = [];
    rep_lock_findings = [];
    rep_sanity_ok = false;
    rep_branches_total = 0;
    rep_branches_recorded = 0;
    rep_undecided = [];
    rep_degraded = [ Fmt.str "quarantined: %s" reason ];
  }

(* ------------------------------------------------------------------ *)
(* Prepared jobs (static phase)                                        *)
(* ------------------------------------------------------------------ *)

(** Output of the static phase: everything the dynamic phase needs, and
    everything the engine's cache key must cover. *)
type prepared = {
  prep_rule : Semantics.Rule.t;
  prep_tests : string list;  (** concrete inputs the dynamic phase runs *)
  prep_kind : prep_kind;
}

and prep_kind =
  | Prep_guard of {
      pg_condition : Smt.Formula.t;
      pg_targets : (string * Ast.stmt) list;
          (** enclosing qualified method, resolved target statement *)
      pg_trees : Analysis.Paths.exec_tree list;
    }
  | Prep_lock of { pl_scope : Semantics.Rule.lock_scope }

let prepared_static_paths (pr : prepared) : Analysis.Paths.exec_path list =
  match pr.prep_kind with
  | Prep_guard { pg_trees; _ } ->
      List.concat_map (fun t -> t.Analysis.Paths.et_paths) pg_trees
  | Prep_lock _ -> []

(** Qualified names of the methods holding a resolved target statement. *)
let prepared_target_methods (pr : prepared) : string list =
  match pr.prep_kind with
  | Prep_guard { pg_targets; _ } ->
      List.sort_uniq compare (List.map fst pg_targets)
  | Prep_lock _ -> []

(* ------------------------------------------------------------------ *)
(* State-guard rules                                                   *)
(* ------------------------------------------------------------------ *)

let roots_of_condition (c : Smt.Formula.t) : string list =
  Smt.Formula.variables c |> List.map Symexec.Sym.root_of_path |> List.sort_uniq compare

let select_tests (config : config) (p : Ast.program) (rule : Semantics.Rule.t)
    (trees : Analysis.Paths.exec_tree list) : string list =
  match config.selection with
  | All_tests -> Interp.test_names p
  | Pseudo_random { seed; k } -> Oracle.Test_select.select_random p ~seed ~k
  | Rag k ->
      let sels =
        List.concat_map (fun tree -> Oracle.Test_select.select p rule tree ~k) trees
      in
      let names = Oracle.Test_select.selected_tests sels in
      (* keep only scores within the top-k union; fall back to all tests if
         the suite has no tests at all *)
      if names = [] then Interp.test_names p else names

(* does a hit's decision vector cover a static path? *)
let covers (h : Symexec.Concolic.hit) (ep : Analysis.Paths.exec_path) : bool =
  List.for_all
    (fun (d : Analysis.Paths.decision) ->
      match List.assoc_opt d.Analysis.Paths.d_sid h.Symexec.Concolic.h_decisions with
      | Some taken -> taken = d.Analysis.Paths.d_taken
      | None -> false)
    ep.Analysis.Paths.ep_decisions

(* the dynamic phase's concolic exploration for a state-guard rule *)
let guard_runs (config : config) (p : Ast.program) (pr : prepared)
    ~(condition : Smt.Formula.t) ~(targets : (string * Ast.stmt) list) :
    Symexec.Concolic.run_result list =
  let target_sids = List.map (fun (_, st) -> st.Ast.sid) targets in
  let cc =
    {
      Symexec.Concolic.default_config with
      Symexec.Concolic.targets = target_sids;
      relevant_roots = roots_of_condition condition;
      prune = config.prune;
      fuel = config.fuel;
      capture_vars = Smt.Formula.variables condition;
    }
  in
  Symexec.Concolic.run_all ~config:cc p pr.prep_tests

(** Judge every hit against the checker condition, in input order: each
    trace is one independent (cached) solver query, the paper's §3.2
    check. *)
let judge_hits (config : config) ~(condition : Smt.Formula.t)
    (hits : Symexec.Concolic.hit list) : trace_verdict list =
  let check =
    match config.method_ with
    | Complement -> Smt.Memo.check_trace
    | Direct -> Smt.Memo.check_trace_direct
  in
  List.map
    (fun (h : Symexec.Concolic.hit) ->
      let pc = Symexec.Concolic.hit_pc_formula h in
      {
        tv_target_sid = h.Symexec.Concolic.h_target_sid;
        tv_method = h.Symexec.Concolic.h_method;
        tv_entry = h.Symexec.Concolic.h_entry;
        tv_pc = pc;
        tv_result = check ~pc ~checker:condition;
        tv_state = h.Symexec.Concolic.h_state;
      })
    hits

let execute_state_guard (config : config) (p : Ast.program) (pr : prepared)
    ~(condition : Smt.Formula.t) ~(targets : (string * Ast.stmt) list)
    ~(trees : Analysis.Paths.exec_tree list) : rule_report =
  let static_paths = List.concat_map (fun t -> t.Analysis.Paths.et_paths) trees in
  let tests = pr.prep_tests in
  let runs = guard_runs config p pr ~condition ~targets in
  let hits = List.concat_map (fun r -> r.Symexec.Concolic.r_hits) runs in
  let traces = judge_hits config ~condition hits in
  let violations =
    List.filter
      (fun t -> match t.tv_result with Smt.Solver.Violation _ -> true | _ -> false)
      traces
  in
  let verified =
    List.filter
      (fun t -> match t.tv_result with Smt.Solver.Verified -> true | _ -> false)
      traces
  in
  let undecided =
    List.filter
      (fun t ->
        match t.tv_result with Smt.Solver.Undecided _ -> true | _ -> false)
      traces
  in
  let uncovered =
    List.filter (fun ep -> not (List.exists (fun h -> covers h ep) hits)) static_paths
    |> List.map Analysis.Paths.exec_path_to_string
  in
  let degraded =
    degraded_run_reasons runs
    @ List.map
        (fun t ->
          let why =
            match t.tv_result with
            | Smt.Solver.Undecided reason -> reason
            | _ -> assert false
          in
          Fmt.str "solver undecided on %s (driven by %s): %s" t.tv_method
            t.tv_entry why)
        undecided
  in
  {
    rep_rule = pr.prep_rule;
    rep_targets = List.length targets;
    rep_static_paths = List.length static_paths;
    rep_tests_run = tests;
    rep_traces = traces;
    rep_violations = violations;
    rep_verified = verified;
    rep_uncovered_paths = uncovered;
    rep_lock_findings = [];
    rep_sanity_ok = verified <> [];
    rep_branches_total =
      List.fold_left (fun n r -> n + r.Symexec.Concolic.r_branches_total) 0 runs;
    rep_branches_recorded =
      List.fold_left (fun n r -> n + r.Symexec.Concolic.r_branches_recorded) 0 runs;
    rep_undecided = undecided;
    rep_degraded = degraded;
  }

(* ------------------------------------------------------------------ *)
(* Lock-discipline rules                                               *)
(* ------------------------------------------------------------------ *)

(* statements with any callee at all under a lock (the naive broadening) *)
let any_call_under_lock (p : Ast.program) : lock_finding list =
  List.concat_map
    (fun (cls, m) ->
      let qname = Ast.qualified_name cls m in
      let scoped = ref [] in
      let rec walk (b : Ast.block) (under : bool) =
        List.iter
          (fun (st : Ast.stmt) ->
            (if under then
               match Ast.callees_of_stmt st with
               | c :: _ -> scoped := (st.Ast.sid, c) :: !scoped
               | [] -> ());
            match st.Ast.s with
            | Ast.Sync (_, body) -> walk body true
            | Ast.If (_, b1, b2) ->
                walk b1 under;
                walk b2 under
            | Ast.While (_, body) -> walk body under
            | Ast.Try (body, _, h) ->
                walk body under;
                walk h under
            | Ast.Decl _ | Ast.Assign _ | Ast.Return _ | Ast.Throw _ | Ast.Expr _
            | Ast.Assert _ | Ast.Break | Ast.Continue ->
                ())
          b
      in
      walk m.Ast.m_body false;
      List.rev_map
        (fun (sid, op) -> { lf_method = qname; lf_op = op; lf_static = true; lf_sid = sid })
        !scoped)
    (Ast.methods_of_program p)

let execute_lock_rule (config : config) (p : Ast.program) (pr : prepared)
    ~(scope : Semantics.Rule.lock_scope) : rule_report =
  let static_findings =
    match scope with
    | Semantics.Rule.Lock_all_calls -> any_call_under_lock p
    | Semantics.Rule.Lock_blocking | Semantics.Rule.Lock_specific _ ->
        Analysis.Lockscope.analyze p
        |> List.filter (fun (v : Analysis.Lockscope.violation) ->
               match scope with
               | Semantics.Rule.Lock_specific m -> v.Analysis.Lockscope.v_method = m
               | Semantics.Rule.Lock_blocking | Semantics.Rule.Lock_all_calls -> true)
        |> List.filter (fun (v : Analysis.Lockscope.violation) ->
               v.Analysis.Lockscope.v_direct)
        |> List.map (fun (v : Analysis.Lockscope.violation) ->
               {
                 lf_method = v.Analysis.Lockscope.v_method;
                 lf_op = v.Analysis.Lockscope.v_op;
                 lf_static = true;
                 lf_sid = v.Analysis.Lockscope.v_sid;
               })
  in
  (* dynamic confirmation: run the whole test suite and look for blocking
     events while holding a monitor *)
  let tests = pr.prep_tests in
  let cc = { Symexec.Concolic.default_config with Symexec.Concolic.fuel = config.fuel } in
  let runs = Symexec.Concolic.run_all ~config:cc p tests in
  let dynamic_findings =
    List.concat_map (fun r -> r.Symexec.Concolic.r_blocking) runs
    |> List.filter (fun (b : Symexec.Concolic.blocking_event) ->
           b.Symexec.Concolic.be_locks > 0)
    |> List.filter (fun (b : Symexec.Concolic.blocking_event) ->
           match scope with
           | Semantics.Rule.Lock_specific m -> b.Symexec.Concolic.be_method = m
           | Semantics.Rule.Lock_blocking | Semantics.Rule.Lock_all_calls -> true)
    |> List.map (fun (b : Symexec.Concolic.blocking_event) ->
           {
             lf_method = b.Symexec.Concolic.be_method;
             lf_op = b.Symexec.Concolic.be_op;
             lf_static = false;
             lf_sid = b.Symexec.Concolic.be_sid;
           })
  in
  let findings =
    (* dedupe by (method, op, sid), static first *)
    let key f = (f.lf_method, f.lf_op, f.lf_sid) in
    let rec dedup seen = function
      | [] -> []
      | f :: rest ->
          if List.mem (key f) seen then dedup seen rest
          else f :: dedup (key f :: seen) rest
    in
    dedup [] (static_findings @ dynamic_findings)
  in
  {
    rep_rule = pr.prep_rule;
    rep_targets = 0;
    rep_static_paths = 0;
    rep_tests_run = tests;
    rep_traces = [];
    rep_violations = [];
    rep_verified = [];
    rep_uncovered_paths = [];
    rep_lock_findings = findings;
    rep_sanity_ok = true;
    rep_branches_total = 0;
    rep_branches_recorded = 0;
    rep_undecided = [];
    rep_degraded = degraded_run_reasons runs;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Static phase: resolve targets, build execution trees, select tests.
    [?graph] lets the engine share one call graph across all rules of a
    program version instead of rebuilding it per rule. *)
let prepare ?(config = default_config) ?graph (p : Ast.program)
    (rule : Semantics.Rule.t) : prepared =
  Telemetry.Trace.with_span ~cat:"checker"
    ~args:[ ("rule", rule.Semantics.Rule.rule_id) ]
    "checker.prepare"
  @@ fun () ->
  match rule.Semantics.Rule.body with
  | Semantics.Rule.State_guard { target; condition } ->
      let targets = Semantics.Rulebook.resolve_targets p target in
      let target_sids = List.map (fun (_, st) -> st.Ast.sid) targets in
      let g =
        match graph with Some g -> g | None -> Analysis.Callgraph.build p
      in
      let trees = List.map (Analysis.Paths.exec_tree p g) target_sids in
      let tests = select_tests config p rule trees in
      {
        prep_rule = rule;
        prep_tests = tests;
        prep_kind =
          Prep_guard { pg_condition = condition; pg_targets = targets; pg_trees = trees };
      }
  | Semantics.Rule.Lock_discipline { scope } ->
      {
        prep_rule = rule;
        prep_tests = Interp.test_names p;
        prep_kind = Prep_lock { pl_scope = scope };
      }

(** Dynamic phase: concolic exploration and SMT judging of a prepared
    rule.  This is the unit of work the engine schedules on its worker
    pool and memoizes in the report cache. *)
let execute ?(config = default_config) (p : Ast.program) (pr : prepared) :
    rule_report =
  Telemetry.Trace.with_span ~cat:"checker"
    ~args:[ ("rule", pr.prep_rule.Semantics.Rule.rule_id) ]
    "checker.execute"
  @@ fun () ->
  match pr.prep_kind with
  | Prep_guard { pg_condition; pg_targets; pg_trees } ->
      execute_state_guard config p pr ~condition:pg_condition ~targets:pg_targets
        ~trees:pg_trees
  | Prep_lock { pl_scope } -> execute_lock_rule config p pr ~scope:pl_scope

(** Check one rule against a program version (prepare + execute). *)
let check_rule ?(config = default_config) (p : Ast.program)
    (rule : Semantics.Rule.t) : rule_report =
  execute ~config p (prepare ~config p rule)

(** The dynamic phase's concolic evidence for a state-guard rule: its
    checker condition and every target hit, in execution order ([None]
    for lock rules), so trace judging can be timed apart from concolic
    exploration. *)
let guard_evidence ?(config = default_config) (p : Ast.program) (pr : prepared)
    : (Smt.Formula.t * Symexec.Concolic.hit list) option =
  match pr.prep_kind with
  | Prep_lock _ -> None
  | Prep_guard { pg_condition; pg_targets; _ } ->
      let runs =
        guard_runs config p pr ~condition:pg_condition ~targets:pg_targets
      in
      Some
        ( pg_condition,
          List.concat_map (fun r -> r.Symexec.Concolic.r_hits) runs )

(** Check a whole rulebook. *)
let check_book ?(config = default_config) (p : Ast.program)
    (book : Semantics.Rulebook.t) : rule_report list =
  let g = Analysis.Callgraph.build p in
  List.map
    (fun rule -> execute ~config p (prepare ~config ~graph:g p rule))
    (Semantics.Rulebook.rules book)

let report_summary (r : rule_report) : string =
  let base =
    Fmt.str
      "%s: targets=%d static_paths=%d tests=%d traces=%d verified=%d \
       violations=%d uncovered=%d lock_findings=%d sanity=%b"
      r.rep_rule.Semantics.Rule.rule_id r.rep_targets r.rep_static_paths
      (List.length r.rep_tests_run)
      (List.length r.rep_traces)
      (List.length r.rep_verified)
      (List.length r.rep_violations)
      (List.length r.rep_uncovered_paths)
      (List.length r.rep_lock_findings)
      r.rep_sanity_ok
  in
  (* degraded counters only appear on degraded reports: the healthy-run
     summary stays byte-identical to the pre-resilience checker *)
  if r.rep_undecided = [] && r.rep_degraded = [] then base
  else
    Fmt.str "%s undecided=%d degraded=%d" base
      (List.length r.rep_undecided)
      (List.length r.rep_degraded)
