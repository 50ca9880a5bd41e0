(* lisa — command-line interface to the LISA reproduction.

   Subcommands:
     corpus            list the incident corpus (cases, bugs, tickets)
     corpus synth      generate a seeded synthetic corpus (list, dump
                       sources, or re-check one case — the fuzzer repro)
     show-ticket       print one ticket bundle (description, diff, tests)
     prompt            print the Listing-1 prompt for a ticket
     infer             run inference on a ticket, print rules + JSON
     check             learn from a case's first ticket and enforce the
                       rulebook against a chosen stage
     ci                replay a case's gated version history
     engine            whole-system scan through the enforcement engine
     serve             enforcement-as-a-service daemon (JSONL over stdin
                       or a Unix socket, warm persistent caches)
     run-tests         run a corpus program's test suite (any case/stage)
     parse             parse and typecheck a MiniJava file from disk *)

open Cmdliner

(* -v / -vv: install a Logs reporter (info / debug) before the command runs *)
let logs_t : unit Term.t =
  let setup flags =
    let level =
      match List.length flags with
      | 0 -> None
      | 1 -> Some Logs.Info
      | _ -> Some Logs.Debug
    in
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level level
  in
  Term.(
    const setup
    $ Arg.(
        value & flag_all
        & info [ "v"; "verbose" ] ~doc:"Increase verbosity (repeat for debug)."))

let find_case_exn case_id =
  match Corpus.Registry.find Corpus.Registry.builtin case_id with
  | Some c -> c
  | None ->
      Fmt.epr "unknown case %S. Known cases:@.%a@." case_id
        (Fmt.list ~sep:Fmt.cut Fmt.string)
        (List.map (fun (c : Corpus.Case.t) -> c.Corpus.Case.case_id)
           Corpus.Registry.builtin.cases);
      exit 1

let case_arg =
  let doc = "Corpus case id (e.g. zk-ephemeral). Use `lisa corpus` to list." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CASE" ~doc)

let stage_arg =
  let doc = "Stage of the case's history (0 = original buggy version)." in
  Arg.(value & opt int 2 & info [ "stage" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the enforcement engine.  Defaults to the machine's \
     recommended domain count minus one (never below 1); $(b,--jobs 1) runs \
     on the calling domain and is bit-for-bit deterministic."
  in
  Arg.(
    value
    & opt int (Engine.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* ------------------------------------------------------------------ *)

let corpus_list () =
  let b = Corpus.Registry.builtin in
  Fmt.pr "%-28s %-10s %-6s %-40s@." "case" "system" "bugs" "feature";
  List.iter
    (fun (c : Corpus.Case.t) ->
      Fmt.pr "%-28s %-10s %-6d %-40s@." c.Corpus.Case.case_id c.Corpus.Case.system
        (Corpus.Case.n_bugs c) c.Corpus.Case.feature)
    b.cases;
  Fmt.pr "@.%d cases, %d bugs; %d/%d bugs violate old semantics (%.0f%%)@."
    (Corpus.Registry.case_count b) (Corpus.Registry.bug_count b)
    (Corpus.Registry.old_semantics_count b) (Corpus.Registry.bug_count b)
    (100. *. Corpus.Registry.old_share b)

let corpus_synth_cmd =
  let seed_arg =
    let doc = "Generator seed: the whole corpus is a pure function of it." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let size_arg =
    let doc =
      "Scale factor: the registry holds $(docv) x 4 systems of 4 cases each."
    in
    Arg.(value & opt int 1 & info [ "size" ] ~docv:"S" ~doc)
  in
  let case_arg =
    let doc =
      "Focus on generated case $(docv) (the global index used by the \
       minimizer's repro command): print its tickets, run the validator \
       and the planted-bug check, and on failure shrink to a minimal \
       reproduction."
    in
    Arg.(value & opt (some int) None & info [ "case" ] ~docv:"K" ~doc)
  in
  let system_arg =
    let doc = "Print the assembled source of this generated system." in
    Arg.(value & opt (some string) None & info [ "system" ] ~docv:"NAME" ~doc)
  in
  let release_arg =
    let doc = "Release version for $(b,--system) source assembly." in
    Arg.(value & opt int 3 & info [ "release" ] ~docv:"V" ~doc)
  in
  let show_case ~seed k =
    let c = Corpus.Synth.case_at ~seed k in
    Fmt.pr "case %d: %s (system %s, %d stage(s))@." k c.Corpus.Case.case_id
      c.Corpus.Case.system c.Corpus.Case.n_stages;
    List.iter
      (fun (t : Oracle.Ticket.t) -> Fmt.pr "  ticket %s@." (Oracle.Ticket.summary t))
      (Corpus.Case.tickets c);
    match Lisa.Synth_check.full c with
    | None -> Fmt.pr "check: ok (validates, planted bug found at stage 2 only)@."
    | Some failure -> (
        Fmt.pr "check: FAIL — %s@." failure;
        match Corpus.Synth.minimize ~fails:Lisa.Synth_check.full ~seed k with
        | None -> exit 1
        | Some r ->
            Fmt.pr
              "minimized: aux_tests=%d fixture_extra=%d helper=%b@.failure: \
               %s@.repro: %s@."
              r.Corpus.Synth.rp_knobs.Corpus.Synth.k_aux_tests
              r.Corpus.Synth.rp_knobs.Corpus.Synth.k_fixture_extra
              r.Corpus.Synth.rp_knobs.Corpus.Synth.k_helper
              r.Corpus.Synth.rp_failure
              (Corpus.Synth.repro_command r);
            exit 1)
  in
  let run seed size case system version =
    match (case, system) with
    | Some k, _ -> show_case ~seed k
    | None, Some sys ->
        let reg = Corpus.Synth.registry ~seed ~scale:size () in
        if not (List.mem sys reg.Corpus.Registry.systems) then begin
          Fmt.epr "unknown synthetic system %S (have: %s)@." sys
            (String.concat ", " reg.Corpus.Registry.systems);
          exit 1
        end;
        print_string (Corpus.Registry.source_of reg sys ~version)
    | None, None ->
        let reg = Corpus.Synth.registry ~seed ~scale:size () in
        Fmt.pr "%s: %d system(s), %d case(s), scan versions %s@.@."
          reg.Corpus.Registry.name
          (List.length reg.Corpus.Registry.systems)
          (Corpus.Registry.case_count reg)
          (String.concat ","
             (List.map string_of_int reg.Corpus.Registry.scan_versions));
        List.iter
          (fun sys ->
            Fmt.pr "%s@." sys;
            List.iter
              (fun (v, msg) -> Fmt.pr "  v%d %s@." v msg)
              (Corpus.Registry.history_of reg sys);
            List.iter
              (fun (c : Corpus.Case.t) ->
                Fmt.pr "  %-24s %s@." c.Corpus.Case.case_id
                  c.Corpus.Case.feature)
              (Corpus.Registry.cases_of reg sys))
          reg.Corpus.Registry.systems
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Generate a seeded synthetic corpus: list its systems, cases and \
          commit histories, dump assembled sources, or re-check one case \
          (the fuzzer/minimizer repro path)")
    Term.(const run $ seed_arg $ size_arg $ case_arg $ system_arg $ release_arg)

let corpus_cmd =
  let default = Term.(const corpus_list $ const ()) in
  Cmd.group ~default
    (Cmd.info "corpus"
       ~doc:
         "List the incident corpus (default) or work with generated \
          synthetic corpora ($(b,lisa corpus synth))")
    [ corpus_synth_cmd ]

let ticket_of ~which c =
  let tickets = Corpus.Case.tickets c in
  match (which, tickets) with
  | 0, t :: _ -> t
  | n, ts when n < List.length ts -> List.nth ts n
  | _ ->
      Fmt.epr "case has only %d ticket(s)@." (List.length tickets);
      exit 1

let which_arg =
  let doc = "Which ticket of the case (0 = original incident)." in
  Arg.(value & opt int 0 & info [ "ticket" ] ~docv:"N" ~doc)

let show_ticket_cmd =
  let run case_id which =
    let t = ticket_of ~which (find_case_exn case_id) in
    Fmt.pr "%s@.@.description: %s@.@.discussion: %s@.@.regression tests: %s@.@.%s@."
      (Oracle.Ticket.summary t) t.Oracle.Ticket.description
      t.Oracle.Ticket.discussion
      (String.concat ", " t.Oracle.Ticket.regression_tests)
      (Oracle.Ticket.diff t)
  in
  Cmd.v (Cmd.info "show-ticket" ~doc:"Print one ticket bundle")
    Term.(const run $ case_arg $ which_arg)

let prompt_cmd =
  let run case_id which =
    print_endline (Oracle.Prompt.build (ticket_of ~which (find_case_exn case_id)))
  in
  Cmd.v (Cmd.info "prompt" ~doc:"Print the Listing-1 prompt for a ticket")
    Term.(const run $ case_arg $ which_arg)

let infer_cmd =
  let run case_id which =
    let t = ticket_of ~which (find_case_exn case_id) in
    let inf = Oracle.Inference.infer t in
    Fmt.pr "high-level semantics: %s@.@." inf.Oracle.Inference.inf_high_level;
    List.iter (fun r -> Fmt.pr "rule: %s@." (Semantics.Rule.to_string r)) inf.Oracle.Inference.inf_rules;
    Fmt.pr "@.JSON (Listing 1 output format):@.%s@." (Oracle.Inference.to_json inf)
  in
  Cmd.v (Cmd.info "infer" ~doc:"Run low-level-semantics inference on a ticket")
    Term.(const run $ case_arg $ which_arg)

let check_cmd =
  let run case_id stage =
    let c = find_case_exn case_id in
    let outcome = Lisa.Pipeline.learn (Corpus.Case.original_ticket c) in
    Fmt.pr "learned %d rule(s) from %s:@." (List.length outcome.Lisa.Pipeline.accepted)
      (Corpus.Case.original_ticket c).Oracle.Ticket.ticket_id;
    List.iter (fun r -> Fmt.pr "  %s@." (Semantics.Rule.to_string r)) outcome.Lisa.Pipeline.accepted;
    let book = Semantics.Rulebook.of_rules ~system:c.Corpus.Case.system outcome.Lisa.Pipeline.accepted in
    let reports = Lisa.Pipeline.enforce (Corpus.Case.program_at c stage) book in
    Fmt.pr "@.enforcement against stage %d:@." stage;
    List.iter (fun r -> Fmt.pr "  %s@." (Engine.Checker.report_summary r)) reports;
    List.iter
      (fun (r : Engine.Checker.rule_report) ->
        List.iter
          (fun (t : Engine.Checker.trace_verdict) ->
            match t.Engine.Checker.tv_result with
            | Smt.Solver.Violation m ->
                Fmt.pr "  VIOLATION in %s (driven by %s)@.    path condition: %s@.    counterexample: %s@."
                  t.Engine.Checker.tv_method t.Engine.Checker.tv_entry
                  (Smt.Formula.to_string t.Engine.Checker.tv_pc)
                  (Smt.Solver.model_to_string m)
            | Smt.Solver.Verified | Smt.Solver.Undecided _ -> ())
          r.Engine.Checker.rep_violations;
        List.iter
          (fun (f : Engine.Checker.lock_finding) ->
            Fmt.pr "  LOCK VIOLATION: %s performs %s under a monitor (stmt %d)@."
              f.Engine.Checker.lf_method f.Engine.Checker.lf_op f.Engine.Checker.lf_sid)
          r.Engine.Checker.rep_lock_findings)
      reports;
    if not (List.exists Engine.Checker.has_violations reports) then Fmt.pr "  clean@."
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Learn rules from a case's first incident and enforce them on a stage")
    Term.(const (fun () c s -> run c s) $ logs_t $ case_arg $ stage_arg)

let report_cmd =
  let run case_id stage =
    let c = find_case_exn case_id in
    let outcome = Lisa.Pipeline.learn (Corpus.Case.original_ticket c) in
    let book =
      Semantics.Rulebook.of_rules ~system:c.Corpus.Case.system
        outcome.Lisa.Pipeline.accepted
    in
    let reports = Lisa.Pipeline.enforce (Corpus.Case.program_at c stage) book in
    print_endline
      (Lisa.Report.render
         ~title:(Fmt.str "%s stage %d" case_id stage)
         reports)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Markdown enforcement report for a case stage")
    Term.(const (fun () c s -> run c s) $ logs_t $ case_arg $ stage_arg)

let ci_cmd =
  let triage_arg =
    let doc =
      "Gate stages through witness-replay triage: only findings that \
       survive it (witnessed / consistent) block; all-Likely-FP rules \
       are demoted to advisory events."
    in
    Arg.(value & flag & info [ "triage" ] ~doc)
  in
  let run case_id jobs triage =
    let triage_config =
      if triage then Some Triage.default_config else None
    in
    let r = Lisa.Ci.replay ~jobs ?triage:triage_config (find_case_exn case_id) in
    print_endline (Lisa.Ci.run_to_string r);
    (* exit 2: the history replayed, but some stage's verdict is
       best-effort (lost evidence) — distinct from eval errors (1) *)
    if Lisa.Ci.degraded_stages r <> [] then exit 2
  in
  Cmd.v (Cmd.info "ci" ~doc:"Replay a case's gated version history")
    Term.(
      const (fun () c j t -> run c j t)
      $ logs_t $ case_arg $ jobs_arg $ triage_arg)

let engine_cmd =
  let trace_arg =
    let doc =
      "Record every pipeline stage through the telemetry tracer and write \
       Chrome-trace JSON (chrome://tracing, Perfetto) to $(docv), plus a \
       per-span summary table on stdout."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let noise_rate_arg =
    let doc =
      "Perturb the oracle with this corruption probability per rule \
       (hallucinated-semantics noise model: weakened, flipped, or \
       ghost-target conditions).  0.0 leaves inference untouched."
    in
    Arg.(value & opt float 0.0 & info [ "noise-rate" ] ~docv:"P" ~doc)
  in
  let noise_seed_arg =
    let doc = "Deterministic seed for the oracle noise model." in
    Arg.(value & opt int 0 & info [ "noise-seed" ] ~docv:"SEED" ~doc)
  in
  let no_cross_check_arg =
    let doc =
      "Skip the learning-time cross-check (accept rules without validating \
       them against the patched version) — lets noisy rules through so \
       enforcement-time triage can be demonstrated."
    in
    Arg.(value & flag & info [ "no-cross-check" ] ~doc)
  in
  let triage_arg =
    let doc =
      "Run witness-replay triage over every finding and print its tier \
       (witnessed / consistent / likely-fp) next to the rule id."
    in
    Arg.(value & flag & info [ "triage" ] ~doc)
  in
  let run jobs trace noise_rate noise_seed no_cross_check triage =
    if trace <> None then Telemetry.Trace.set_enabled true;
    let engine_config =
      { Engine.Scheduler.default_config with Engine.Scheduler.jobs }
    in
    let config =
      {
        Lisa.Pipeline.default_config with
        Lisa.Pipeline.oracle =
          (if noise_rate > 0.0 then fun t ->
             Oracle.Inference.infer
               ~noise:{ Oracle.Inference.epsilon = noise_rate; seed = noise_seed }
               t
           else Oracle.Inference.default_client);
        cross_check = not no_cross_check;
      }
    in
    let triage_config =
      if triage then Some Triage.default_config else None
    in
    let results, stats =
      Lisa.System_scan.run_engine ~config ~engine_config ?triage:triage_config
        ()
    in
    print_string (Lisa.System_scan.print_with_stats (results, stats));
    (match trace with
    | None -> ()
    | Some path ->
        Telemetry.Trace.export_to_file path;
        Fmt.pr "@.trace: %d event(s) written to %s@.@.%s"
          (Telemetry.Trace.event_count ())
          path
          (Telemetry.Trace.summary ()));
    (* exit 3: some rules were quarantined — their verdicts are missing,
       so the scan must not read as a clean pass *)
    if stats.Engine.Stats.quarantined <> [] then exit 3
  in
  Cmd.v
    (Cmd.info "engine"
       ~doc:
         "Run the whole-system scan (every rulebook against releases \
          v1/v2/v3/v5) through the parallel enforcement engine and print \
          its statistics")
    Term.(
      const (fun () j t nr ns ncc tr -> run j t nr ns ncc tr)
      $ logs_t $ jobs_arg $ trace_arg $ noise_rate_arg $ noise_seed_arg
      $ no_cross_check_arg $ triage_arg)

let run_tests_cmd =
  let run case_id stage =
    let c = find_case_exn case_id in
    let p = Corpus.Case.program_at c stage in
    let failed = ref 0 in
    List.iter
      (fun name ->
        match Minilang.Interp.run_test p name with
        | Minilang.Interp.Passed -> Fmt.pr "PASS %s@." name
        | Minilang.Interp.Failed m ->
            incr failed;
            Fmt.pr "FAIL %s: %s@." name m
        | Minilang.Interp.Errored m ->
            incr failed;
            Fmt.pr "ERROR %s: %s@." name m)
      (Minilang.Interp.test_names p);
    if !failed > 0 then exit 1
  in
  Cmd.v (Cmd.info "run-tests" ~doc:"Run a corpus stage's test suite")
    Term.(const run $ case_arg $ stage_arg)

let parse_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniJava source file")
  in
  let run file =
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    match Minilang.Parser.program ~file src with
    | exception Minilang.Parser.Error (m, loc) ->
        Fmt.epr "parse error: %s at %a@." m Minilang.Loc.pp loc;
        exit 1
    | exception Minilang.Lexer.Error (m, loc) ->
        Fmt.epr "lex error: %s at %a@." m Minilang.Loc.pp loc;
        exit 1
    | p -> (
        match Minilang.Typecheck.check_program p with
        | [] ->
            Fmt.pr "%d class(es), %d function(s); typechecks@."
              (List.length p.Minilang.Ast.p_classes)
              (List.length p.Minilang.Ast.p_funcs)
        | errs ->
            Fmt.epr "%s@." (Minilang.Typecheck.errors_to_string errs);
            exit 1)
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and typecheck a MiniJava file")
    Term.(const run $ file_arg)

let serve_cmd =
  let socket_arg =
    let doc =
      "Listen on a Unix domain socket at $(docv) (created, stale files \
       replaced, removed on exit) instead of stdin/stdout JSONL."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Persist the response cache as a snapshot in $(docv) and \
       warm-start from it; a corrupt or stale snapshot falls back to a \
       cold start."
    in
    Arg.(
      value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let queue_depth_arg =
    let doc =
      "Admission-queue bound; requests beyond it are shed with an \
       $(b,overloaded) response (the accept loop never blocks)."
    in
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N" ~doc)
  in
  let breaker_threshold_arg =
    let doc = "Consecutive failures that open a tenant's circuit breaker." in
    Arg.(value & opt int 3 & info [ "breaker-threshold" ] ~docv:"N" ~doc)
  in
  let breaker_cooldown_arg =
    let doc = "Tenant requests rejected while its breaker cools down." in
    Arg.(value & opt int 8 & info [ "breaker-cooldown" ] ~docv:"N" ~doc)
  in
  let drain_after_eof_arg =
    let doc =
      "Testing mode (stdin only): admit the whole input stream before \
       serving, so admission order — and which request sheds — is \
       deterministic."
    in
    Arg.(value & flag & info [ "drain-after-eof" ] ~doc)
  in
  let trace_arg =
    let doc =
      "Record serve.* spans and counters through the telemetry tracer and \
       write Chrome-trace JSON to $(docv) on shutdown."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let no_triage_arg =
    let doc =
      "Disable witness-replay triage: enforce summaries omit the per-rule \
       $(b,tiers) field (the v1 wire form)."
    in
    Arg.(value & flag & info [ "no-triage" ] ~doc)
  in
  let run jobs socket cache_dir queue_depth breaker_threshold breaker_cooldown
      drain_after_eof no_triage trace =
    if trace <> None then Telemetry.Trace.set_enabled true;
    let config =
      {
        Serve.Daemon.jobs;
        queue_depth;
        breaker_threshold;
        breaker_cooldown;
        cache_dir;
        drain_after_eof;
        triage = (if no_triage then None else Some Triage.default_config);
        registry = Corpus.Registry.builtin;
      }
    in
    let d = Serve.Daemon.create ~config () in
    (match socket with
    | Some path -> Serve.Daemon.serve_socket d ~path
    | None -> Serve.Daemon.serve_channels d stdin stdout);
    match trace with
    | None -> ()
    | Some path ->
        Telemetry.Trace.export_to_file path;
        Fmt.epr "trace: %d event(s) written to %s@."
          (Telemetry.Trace.event_count ())
          path
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the enforcement engine as a long-running daemon: JSONL \
          requests over stdin or a Unix socket, bounded fair multi-tenant \
          admission, per-tenant circuit breakers, and warm caches \
          (optionally persisted across restarts)")
    Term.(
      const (fun () j s c q bt bc de nt t -> run j s c q bt bc de nt t)
      $ logs_t $ jobs_arg $ socket_arg $ cache_dir_arg $ queue_depth_arg
      $ breaker_threshold_arg $ breaker_cooldown_arg $ drain_after_eof_arg
      $ no_triage_arg $ trace_arg)

let () =
  let info =
    Cmd.info "lisa" ~version:"1.0.0"
      ~doc:"Prevent cloud-system regression failures with low-level semantics"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            corpus_cmd;
            show_ticket_cmd;
            prompt_cmd;
            infer_cmd;
            check_cmd;
            report_cmd;
            ci_cmd;
            engine_cmd;
            serve_cmd;
            run_tests_cmd;
            parse_cmd;
          ]))
