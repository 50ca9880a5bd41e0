(** Experiment drivers for the remaining figures and sections:
    E2 (Figures 2-3), E4 (Figure 5), E5 (Figure 6), E6/E7 (§4), E9 (§5). *)

(* ------------------------------------------------------------------ *)
(* E2 — the ZooKeeper ephemeral-node walkthrough (Figures 2 and 3)     *)
(* ------------------------------------------------------------------ *)

module Zk_ephemeral = struct
  type t = {
    rule : string;
    stage1_clean : bool;
    stage2_violations : (string * string) list;  (** method, counterexample *)
    stage3_clean : bool;
    zombie_demo : string;  (** the Figure 2 stale-registration scenario *)
  }

  (* the Figure 2 scenario: Kafka registers a consumer while the session is
     closing; on the buggy learner path the registration outlives the
     session and clients keep resolving the dead address *)
  let zombie_scenario () : string =
    let c =
      match Corpus.Registry.find Corpus.Registry.builtin "zk-ephemeral" with
      | Some c -> c
      | None -> invalid_arg "zk-ephemeral case missing"
    in
    let src =
      c.Corpus.Case.source 2
      ^ {|
method scenario_kafka_zombie(): str {
  var prep: PrepRequestProcessor = makeEphemeralStack();
  var lrp: LearnerRequestProcessor = new LearnerRequestProcessor(prep.tracker, prep.tree);
  var s: Session = new Session(42, "kafka-consumer-42");
  prep.tracker.addSession(s);
  // the session closes: closing is set and owned ephemerals are removed
  prep.tracker.setClosing(42);
  prep.tree.killSession(42);
  // ... but an in-flight forwarded create lands on the closing session
  // AFTER teardown already swept its ephemerals (the ZK-1208 race)
  lrp.forwardCreate(42, "/consumers/42");
  if (prep.tree.hasNode("/consumers/42")) {
    return "ZOMBIE: /consumers/42 still registered after session close";
  }
  return "clean";
}
|}
    in
    let p = Minilang.Parser.program ~file:"zombie.mj" src in
    match Minilang.Interp.run_function p "scenario_kafka_zombie" [] with
    | st, v -> Minilang.Value.to_string ~heap:st.Minilang.Interp.heap v
    | exception _ -> "scenario error"

  let run () : t =
    let c =
      match Corpus.Registry.find Corpus.Registry.builtin "zk-ephemeral" with
      | Some c -> c
      | None -> invalid_arg "zk-ephemeral case missing"
    in
    let outcome = Pipeline.learn (Corpus.Case.original_ticket c) in
    let book =
      Semantics.Rulebook.of_rules ~system:"zookeeper" outcome.Pipeline.accepted
    in
    let check stage = Pipeline.enforce (Corpus.Case.program_at c stage) book in
    let violations stage =
      List.concat_map
        (fun (r : Engine.Checker.rule_report) ->
          List.map
            (fun (t : Engine.Checker.trace_verdict) ->
              ( t.Engine.Checker.tv_method,
                match t.Engine.Checker.tv_result with
                | Smt.Solver.Violation m -> Smt.Solver.model_to_string m
                | Smt.Solver.Verified -> "verified"
                | Smt.Solver.Undecided reason -> "undecided: " ^ reason ))
            r.Engine.Checker.rep_violations)
        (check stage)
    in
    {
      rule =
        String.concat "; "
          (List.map Semantics.Rule.to_string outcome.Pipeline.accepted);
      stage1_clean = violations 1 = [];
      stage2_violations = violations 2;
      stage3_clean = violations 3 = [];
      zombie_demo = zombie_scenario ();
    }

  let print (t : t) : string =
    String.concat "\n"
      ([
         "E2 / Figures 2-3 — ZK-1208 -> ZK-1496 ephemeral-node regression";
         "----------------------------------------------------------------";
         "learned rule: " ^ t.rule;
         Fmt.str "v1' (after ZK-1208 fix): %s" (if t.stage1_clean then "clean" else "VIOLATION");
         "v2 (learner path added):";
       ]
      @ List.map
          (fun (m, cex) -> Fmt.str "  VIOLATION in %s — counterexample: %s" m cex)
          t.stage2_violations
      @ [
          Fmt.str "v2' (after ZK-1496 fix): %s" (if t.stage3_clean then "clean" else "VIOLATION");
          "";
          "Figure 2 scenario on the regressed version: " ^ t.zombie_demo;
        ])
end

(* ------------------------------------------------------------------ *)
(* E4 — the workflow walkthrough (Figure 5)                            *)
(* ------------------------------------------------------------------ *)

module Workflow = struct
  let run () : string =
    let c =
      match Corpus.Registry.find Corpus.Registry.builtin "zk-ephemeral" with
      | Some c -> c
      | None -> invalid_arg "zk-ephemeral case missing"
    in
    let ticket = Corpus.Case.original_ticket c in
    let outcome = Pipeline.learn ticket in
    let buf = Buffer.create 2048 in
    let pf fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    pf "E4 / Figure 5 — end-to-end workflow on %s" ticket.Oracle.Ticket.ticket_id;
    pf "--------------------------------------------------------";
    List.iter
      (fun (l : Pipeline.stage_log) -> pf "[%-11s] %s" l.Pipeline.stage l.Pipeline.detail)
      outcome.Pipeline.log;
    pf "";
    pf "inference output (Listing 1 JSON schema):";
    pf "%s" (Oracle.Inference.to_json outcome.Pipeline.inference);
    pf "";
    pf "diff consumed by the prompt:";
    pf "%s" (Oracle.Ticket.diff ticket);
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* E5 — rule generalization (Figure 6)                                 *)
(* ------------------------------------------------------------------ *)

module Generalization = struct
  type row = {
    g_scope : string;
    g_catches_regression : bool;
    g_false_positives : int;  (** findings on the *fixed* version (stage 3) *)
  }

  (* count lock findings of a single rule against a stage *)
  let findings_of rule (p : Minilang.Ast.program) : int =
    let r = Engine.Checker.check_rule p rule in
    List.length r.Engine.Checker.rep_lock_findings

  let run () : row list =
    let c =
      match Corpus.Registry.find Corpus.Registry.builtin "zk-serialize-lock" with
      | Some c -> c
      | None -> invalid_arg "zk-serialize-lock case missing"
    in
    let ticket = Corpus.Case.original_ticket c in
    (* un-generalized inference output *)
    let inferred =
      (Oracle.Inference.infer ticket).Oracle.Inference.inf_rules
      |> List.filter Semantics.Rule.is_lock_rule
    in
    let specific = match inferred with r :: _ -> r | [] -> invalid_arg "no lock rule" in
    let generalized = Semantics.Rule.generalize specific in
    let naive = Semantics.Rule.broaden_naively specific in
    let regressed = Corpus.Case.program_at c 2 in
    let fixed = Corpus.Case.program_at c 3 in
    List.map
      (fun (name, rule) ->
        {
          g_scope = name;
          g_catches_regression = findings_of rule regressed > 0;
          g_false_positives = findings_of rule fixed;
        })
      [
        ("specific (method-scoped, as first learned)", specific);
        ("generalized (no blocking I/O under any lock)", generalized);
        ("naive broadening (no calls at all under locks)", naive);
      ]

  let print (rows : row list) : string =
    let buf = Buffer.create 512 in
    let pf fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    pf "E5 / Figure 6 — generalizing the ZK-2201 rule";
    pf "----------------------------------------------";
    pf "%-48s %-20s %-16s" "rule scope" "catches ZK-3531?" "false positives";
    List.iter
      (fun r ->
        pf "%-48s %-20s %-16d" r.g_scope
          (if r.g_catches_regression then "yes" else "NO")
          r.g_false_positives)
      rows;
    pf "";
    pf "expected shape: the specific rule misses the new site; the naive broadening";
    pf "catches it but flags benign in-memory calls; the behavioural generalization";
    pf "(\"no blocking I/O within synchronized blocks\") catches it cleanly.";
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* E6/E7 — previously-unknown bugs in the latest releases (§4)         *)
(* ------------------------------------------------------------------ *)

module Unknown_bugs = struct
  type finding = {
    f_case : string;
    f_bug_id : string;  (** the ticket eventually filed *)
    f_methods : string list;  (** methods with violating paths *)
    f_counterexamples : string list;
  }

  let run_case (case_id : string) : finding =
    let c =
      match Corpus.Registry.find Corpus.Registry.builtin case_id with
      | Some c -> c
      | None -> invalid_arg (case_id ^ " missing")
    in
    (* learn from all *closed* tickets (the known history), then scan the
       latest release *)
    let known_tickets =
      List.filter_map
        (fun (stage, _, _, _) ->
          if stage <= c.Corpus.Case.latest_stage then Corpus.Case.ticket_at c stage
          else None)
        c.Corpus.Case.ticket_meta
    in
    let book, _ = Pipeline.learn_all ~system:c.Corpus.Case.system known_tickets in
    let latest = Corpus.Case.program_at c c.Corpus.Case.latest_stage in
    let reports = Pipeline.enforce latest book in
    let violations =
      List.concat_map (fun (r : Engine.Checker.rule_report) -> r.rep_violations) reports
    in
    {
      f_case = case_id;
      f_bug_id = List.nth c.Corpus.Case.bug_ids (List.length c.Corpus.Case.bug_ids - 1);
      f_methods =
        List.sort_uniq compare
          (List.map (fun (t : Engine.Checker.trace_verdict) -> t.tv_method) violations);
      f_counterexamples =
        List.filter_map
          (fun (t : Engine.Checker.trace_verdict) ->
            match t.Engine.Checker.tv_result with
            | Smt.Solver.Violation m -> Some (Smt.Solver.model_to_string m)
            | Smt.Solver.Verified | Smt.Solver.Undecided _ -> None)
          violations;
    }

  let run () : finding list =
    [ run_case "hbase-snapshot-ttl"; run_case "hdfs-observer-locations" ]

  let print (fs : finding list) : string =
    let buf = Buffer.create 512 in
    let pf fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    pf "E6/E7 / §4 — previously-unknown bugs in the latest releases";
    pf "------------------------------------------------------------";
    List.iter
      (fun f ->
        pf "%s -> new bug %s" f.f_case f.f_bug_id;
        List.iter (fun m -> pf "  violating path in %s" m) f.f_methods;
        List.iter (fun cex -> pf "  counterexample: %s" cex) f.f_counterexamples;
        pf "")
      fs;
    (* the paper proposed the fixes and had them accepted; synthesize and
       verify them mechanically *)
    List.iter
      (fun f -> pf "%s" (Fix.print_case_fixes (Fix.fix_unknown_bug f.f_case)))
      fs;
    pf "paper: Bug #1 (HBASE-29296) missing snapshot-expiration checks;";
    pf "       Bug #2 (HDFS-17768) empty block locations in getBatchedListing;";
    pf "       both proposed fixes were accepted by the systems' developers.";
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* E9 — LLM noise and the cross-check mitigation (§5)                  *)
(* ------------------------------------------------------------------ *)

module Noise = struct
  type row = {
    n_epsilon : float;
    n_cross_check : bool;
    n_corrupted_accepted : int;  (** corrupted rules that entered the rulebook *)
    n_recall : float;  (** share of guard-case regressions still caught *)
    n_false_alarms : int;  (** findings on fixed versions (stage 3) *)
  }

  let is_corrupted (r : Semantics.Rule.t) : bool =
    let id = r.Semantics.Rule.rule_id in
    let has_suffix s =
      Diffing.Textutil.contains_sub id s
    in
    has_suffix ".weak" || has_suffix ".flip" || has_suffix ".ghost"

  let guard_cases ?(registry = Corpus.Registry.builtin) () =
    List.filter
      (fun (c : Corpus.Case.t) -> c.Corpus.Case.kind = Corpus.Case.Guard)
      registry.Corpus.Registry.cases

  let run_one ?registry ~(epsilon : float) ~(cross_check : bool) ~(seed : int)
      () : row =
    let cases = guard_cases ?registry () in
    let corrupted = ref 0 in
    let caught = ref 0 in
    let false_alarms = ref 0 in
    List.iter
      (fun (c : Corpus.Case.t) ->
        let config =
          {
            Pipeline.default_config with
            Pipeline.noise = { Oracle.Inference.epsilon; seed };
            cross_check;
          }
        in
        let outcome = Pipeline.learn ~config (Corpus.Case.original_ticket c) in
        corrupted := !corrupted + List.length (List.filter is_corrupted outcome.Pipeline.accepted);
        let book =
          Semantics.Rulebook.of_rules ~system:c.Corpus.Case.system outcome.Pipeline.accepted
        in
        let flag stage = Pipeline.findings (Pipeline.enforce (Corpus.Case.program_at c stage) book) in
        if flag 2 <> [] then incr caught;
        false_alarms := !false_alarms + List.length (flag 3))
      cases;
    {
      n_epsilon = epsilon;
      n_cross_check = cross_check;
      n_corrupted_accepted = !corrupted;
      n_recall = float_of_int !caught /. float_of_int (List.length cases);
      n_false_alarms = !false_alarms;
    }

  let run () : row list =
    List.concat_map
      (fun epsilon ->
        [
          run_one ~epsilon ~cross_check:false ~seed:7 ();
          run_one ~epsilon ~cross_check:true ~seed:7 ();
        ])
      [ 0.0; 0.2; 0.4; 0.6 ]

  let print (rows : row list) : string =
    let buf = Buffer.create 512 in
    let pf fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    pf "E9 / §5 — LLM noise vs. the cross-checking mitigation";
    pf "------------------------------------------------------";
    pf "%8s %12s %18s %8s %13s" "epsilon" "cross-check" "corrupted-in-book" "recall"
      "false-alarms";
    List.iter
      (fun r ->
        pf "%8.1f %12s %18d %7.0f%% %13d" r.n_epsilon
          (if r.n_cross_check then "on" else "off")
          r.n_corrupted_accepted (100. *. r.n_recall) r.n_false_alarms)
      rows;
    pf "";
    pf "expected shape: without cross-checking, hallucinated rules enter the book";
    pf "and recall degrades / false alarms appear as epsilon grows; grounding each";
    pf "rule against the patched version filters the corrupted ones out.";
    Buffer.contents buf
end
