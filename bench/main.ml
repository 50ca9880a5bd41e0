(* Benchmark & experiment harness.

   One driver per paper artifact (see DESIGN.md experiment index):
     E1 study        — Figure 1 + §2.1 statistics
     E2 zk-ephemeral — Figures 2-3 walkthrough
     E3 comparison   — Figure 4
     E4 workflow     — Figure 5
     E5 generalize   — Figure 6
     E6/E7 unknown   — §4 Bugs #1 and #2
     E8 ablations    — §3.2 mechanism knobs
     E9 noise        — §5 open question (i)
     CI              — the vision: gated histories for all 16 cases
     engine          — serial vs parallel vs incremental enforcement engine
     chaos           — fault-injected enforcement (resilience invariants)
     micro           — Bechamel micro-benchmarks of every engine component
     formula         — hash-consed core: intern throughput + memo key cost
                       (writes BENCH_formula.json)
     serve           — daemon req/s + p50/p99 cold vs warm vs
                       restart-from-snapshot, byte-identity gates
                       (writes BENCH_serve.json)
     triage          — witness-replay tiers: zero-loss on the clean
                       corpus, >= 70% injected-FP demotion under a
                       hallucinating oracle, determinism gates
                       (writes BENCH_triage.json)

   `bench/main.exe` with no arguments runs everything;
   `--experiment <name>` selects one.  `--smoke` shrinks the engine
   experiment to one system (the `make check` fast path).
   `--trace out.json` records every stage through [Telemetry.Trace] and
   writes Chrome-trace JSON plus a per-span summary table on exit. *)

let smoke_flag = ref false

let trace_path : string option ref = ref None

let section title =
  Printf.printf "\n%s\n%s\n" (String.make 78 '=') title;
  print_endline (String.make 78 '=')

let run_study () =
  section "E1: regression study (Figure 1)";
  print_string (Lisa.Study.print (Lisa.Study.run ()))

let run_zk () =
  section "E2: ZooKeeper ephemeral nodes (Figures 2-3)";
  print_endline
    (Lisa.Experiments.Zk_ephemeral.print (Lisa.Experiments.Zk_ephemeral.run ()))

let run_comparison () =
  section "E3: testing vs LISA vs verification (Figure 4)";
  print_string (Lisa.Compare.print (Lisa.Compare.run ()))

let run_workflow () =
  section "E4: end-to-end workflow (Figure 5)";
  print_string (Lisa.Experiments.Workflow.run ())

let run_generalize () =
  section "E5: rule generalization (Figure 6)";
  print_string
    (Lisa.Experiments.Generalization.print (Lisa.Experiments.Generalization.run ()))

let run_unknown () =
  section "E6/E7: previously-unknown bugs in latest releases (Section 4)";
  print_string
    (Lisa.Experiments.Unknown_bugs.print (Lisa.Experiments.Unknown_bugs.run ()))

let run_ablations () =
  section "E8: mechanism ablations";
  print_string (Lisa.Ablation.print (Lisa.Ablation.run ()))

let run_noise () =
  section "E9: LLM noise vs cross-checking (Section 5)";
  print_string (Lisa.Experiments.Noise.print (Lisa.Experiments.Noise.run ()))

let run_system_scan () =
  section "E11: whole-system enforcement on assembled releases";
  print_string (Lisa.System_scan.print (Lisa.System_scan.run ()))

let run_composition () =
  section "E10: composing low-level semantics into high-level guarantees (Section 5)";
  print_string (Lisa.Composition.print (Lisa.Composition.run ()))

let run_ci () =
  section "CI: gated version histories (the executable-contract vision)";
  let registry = Corpus.Registry.builtin in
  let blocked = ref 0 in
  List.iter
    (fun r ->
      print_endline (Lisa.Ci.run_to_string r);
      print_newline ();
      blocked := !blocked + List.length (Lisa.Ci.blocked_stages r))
    (Lisa.Ci.replay_all ~registry ());
  Printf.printf "total commits blocked before release across %d histories: %d\n"
    (Corpus.Registry.case_count registry) !blocked

(* ------------------------------------------------------------------ *)
(* Enforcement-engine benchmark                                        *)
(* ------------------------------------------------------------------ *)

(* The E11 workload (every system's rulebook against releases v1/v2/v3/v5)
   pushed through the engine in three configurations:

     serial cold   — jobs=1, every caching layer off: the historic
                     serial checker, the baseline
     parallel cold — jobs=4, caches still off: pool determinism check
     incremental   — jobs=1, diff pre-pass + report cache + SMT verdict
                     cache on: the production configuration

   Prints wall time, Solver.solve counts and cache-hit counters per
   mode, then asserts the two acceptance properties: identical findings
   in every mode, and strictly fewer solver calls cached than cold. *)
let run_engine_bench () =
  section "ENGINE: serial vs parallel vs incremental enforcement";
  let registry = Corpus.Registry.builtin in
  let systems =
    if !smoke_flag then [ "zookeeper" ] else registry.Corpus.Registry.systems
  in
  let versions = registry.Corpus.Registry.scan_versions in
  let workload =
    List.map
      (fun system ->
        let book = Lisa.System_scan.learn_system_book ~registry system in
        ( system,
          book,
          List.map
            (fun v -> (v, Corpus.Registry.program_of registry system ~version:v))
            versions ))
      systems
  in
  Printf.printf "workload: %d system(s) x %d versions%s\n\n"
    (List.length systems) (List.length versions)
    (if !smoke_flag then " (smoke)" else "");
  let run_mode name config =
    (* the verdict cache is global: start every mode from a clean slate *)
    Smt.Memo.reset ();
    let engine = Engine.Scheduler.create ~config () in
    let t0 = Telemetry.Clock.now () in
    let ids =
      List.concat_map
        (fun (system, book, versions) ->
          List.concat_map
            (fun (v, p) ->
              let reports = Engine.Scheduler.enforce engine p book in
              List.map
                (fun id -> Printf.sprintf "%s v%d %s" system v id)
                (Engine.Scheduler.finding_ids reports))
            versions)
        workload
    in
    let wall = Telemetry.Clock.now () -. t0 in
    let stats = Engine.Scheduler.stats engine in
    Printf.printf "%-14s %6.2fs  %s\n" name wall (Engine.Stats.to_string stats);
    (ids, stats)
  in
  let cold = Engine.Scheduler.cold_config in
  let serial_ids, serial_stats = run_mode "serial-cold" cold in
  let par_ids, _ =
    run_mode "parallel-cold" { cold with Engine.Scheduler.jobs = 4 }
  in
  let inc_ids, inc_stats = run_mode "incremental" Engine.Scheduler.default_config in
  let par_inc_ids, _ =
    run_mode "par-incr"
      { Engine.Scheduler.default_config with Engine.Scheduler.jobs = 4 }
  in
  Printf.printf "\nfindings (%d):\n" (List.length serial_ids);
  List.iter (fun id -> Printf.printf "  %s\n" id) serial_ids;
  Printf.printf "\nsolver calls: serial-cold %d, incremental %d (%d saved by the verdict cache)\n"
    serial_stats.Engine.Stats.solver_calls inc_stats.Engine.Stats.solver_calls
    (Engine.Stats.solver_calls_saved inc_stats);
  Printf.printf "slowest jobs (serial-cold):\n%s\n"
    (Engine.Stats.slowest_jobs ~n:3 serial_stats);
  let check cond msg =
    if cond then Printf.printf "OK: %s\n" msg
    else begin
      Printf.printf "FAIL: %s\n" msg;
      exit 1
    end
  in
  check (serial_ids = par_ids) "findings identical, jobs=1 vs jobs=4 (cold)";
  check (serial_ids = inc_ids) "findings identical, cold vs incremental+cached";
  check (serial_ids = par_inc_ids) "findings identical, jobs=4 incremental+cached";
  check
    (inc_stats.Engine.Stats.solver_calls < serial_stats.Engine.Stats.solver_calls)
    (Printf.sprintf "cached run makes strictly fewer solver calls (%d < %d)"
       inc_stats.Engine.Stats.solver_calls serial_stats.Engine.Stats.solver_calls);
  check
    (inc_stats.Engine.Stats.report_hits + inc_stats.Engine.Stats.incremental_reuses
     > 0)
    "incremental/report layers reused work"

(* ------------------------------------------------------------------ *)
(* Chaos suite                                                         *)
(* ------------------------------------------------------------------ *)

(* E11 workload under seeded fault plans; exits non-zero if any
   resilience invariant fails (never crash, same-seed determinism,
   findings subset of baseline, post-chaos run byte-identical). *)
let run_chaos () =
  section "CHAOS: fault-injected enforcement (resilience invariants)";
  let result =
    if !smoke_flag then Lisa.Chaos.run ~seeds:[ 1; 2 ] ~smoke:true ()
    else Lisa.Chaos.run ()
  in
  print_string (Lisa.Chaos.print result);
  if not (Lisa.Chaos.invariants_ok result) then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let zk_src = (List.hd Corpus.Zookeeper.cases).Corpus.Case.source 3 in
  let zk_prog = Minilang.Parser.program zk_src in
  let checker =
    Smt.Formula.conj
      [
        Smt.Formula.neq (Smt.Formula.tvar "Session") Smt.Formula.tnull;
        Smt.Formula.eq (Smt.Formula.tvar "Session.closing") (Smt.Formula.tbool false);
        Smt.Formula.gt (Smt.Formula.tvar "Session.ttl") (Smt.Formula.tint 0);
      ]
  in
  let pc =
    Smt.Formula.conj
      [
        Smt.Formula.neq (Smt.Formula.tvar "Session") Smt.Formula.tnull;
        Smt.Formula.eq (Smt.Formula.tvar "Session.closing") (Smt.Formula.tbool false);
      ]
  in
  (* id-keyed vs string-keyed verdict-memo probes over the same entries:
     the id path probes with the interned formula's int id, the string
     path re-renders the canonical text on every lookup (the
     pre-hash-consing design) *)
  let memo_formulas =
    Array.init 64 (fun i ->
        Smt.Formula.conj
          [
            Smt.Formula.neq (Smt.Formula.tvar (Printf.sprintf "S%d" i)) Smt.Formula.tnull;
            Smt.Formula.gt (Smt.Formula.tvar (Printf.sprintf "S%d.ttl" i)) (Smt.Formula.tint i);
          ])
  in
  let id_tbl : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  let str_tbl : (string, bool) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun f ->
      let s = Smt.Formula.simplify f in
      Hashtbl.replace id_tbl (Smt.Formula.id s) true;
      Hashtbl.replace str_tbl (Smt.Formula.to_string s) true)
    memo_formulas;
  let memo_i = ref 0 in
  let next_memo_formula () =
    memo_i := (!memo_i + 1) land 63;
    memo_formulas.(!memo_i)
  in
  let ticket = Corpus.Case.original_ticket (List.hd Corpus.Zookeeper.cases) in
  let tfidf_docs =
    List.map
      (fun (c : Corpus.Case.t) ->
        { Oracle.Tfidf.doc_id = c.Corpus.Case.case_id; text = c.Corpus.Case.source 1 })
      Corpus.Registry.builtin.Corpus.Registry.cases
  in
  [
    Test.make ~name:"parser: zk feature module"
      (Staged.stage (fun () -> ignore (Minilang.Parser.program zk_src)));
    Test.make ~name:"typecheck: zk feature module"
      (Staged.stage (fun () -> ignore (Minilang.Typecheck.check_program zk_prog)));
    Test.make ~name:"interp: zk test suite"
      (Staged.stage (fun () ->
           List.iter
             (fun t -> ignore (Minilang.Interp.run_test zk_prog t))
             (Minilang.Interp.test_names zk_prog)));
    Test.make ~name:"concolic: zk test suite"
      (Staged.stage (fun () ->
           ignore (Symexec.Concolic.run_all zk_prog (Minilang.Interp.test_names zk_prog))));
    Test.make ~name:"callgraph: zk feature module"
      (Staged.stage (fun () -> ignore (Analysis.Callgraph.build zk_prog)));
    Test.make ~name:"smt: complement check"
      (Staged.stage (fun () -> ignore (Smt.Solver.check_trace ~pc ~checker)));
    Test.make ~name:"formula: intern checker (hit path)"
      (Staged.stage (fun () ->
           ignore
             (Smt.Formula.conj
                [
                  Smt.Formula.neq (Smt.Formula.tvar "Session") Smt.Formula.tnull;
                  Smt.Formula.eq (Smt.Formula.tvar "Session.closing") (Smt.Formula.tbool false);
                  Smt.Formula.gt (Smt.Formula.tvar "Session.ttl") (Smt.Formula.tint 0);
                ])));
    Test.make ~name:"memo: id-keyed lookup"
      (Staged.stage (fun () ->
           let f = next_memo_formula () in
           ignore (Hashtbl.find_opt id_tbl (Smt.Formula.id (Smt.Formula.simplify f)))));
    Test.make ~name:"memo: string-keyed lookup"
      (Staged.stage (fun () ->
           let f = next_memo_formula () in
           ignore
             (Hashtbl.find_opt str_tbl (Smt.Formula.to_string (Smt.Formula.simplify f)))));
    Test.make ~name:"inference: ZK-1208 ticket"
      (Staged.stage (fun () -> ignore (Oracle.Inference.infer ticket)));
    Test.make ~name:"tfidf: build corpus index"
      (Staged.stage (fun () -> ignore (Oracle.Tfidf.build tfidf_docs)));
    Test.make ~name:"diff: stage0 vs stage1"
      (Staged.stage (fun () ->
           ignore
             (Diffing.Line_diff.diff ticket.Oracle.Ticket.buggy_source
                ticket.Oracle.Ticket.patched_source)));
    Test.make ~name:"pipeline: learn + enforce (zk-ephemeral)"
      (Staged.stage (fun () ->
           let outcome = Lisa.Pipeline.learn ticket in
           let book =
             Semantics.Rulebook.of_rules ~system:"zookeeper"
               outcome.Lisa.Pipeline.accepted
           in
           ignore (Lisa.Pipeline.enforce zk_prog book)));
  ]

let run_micro () =
  section "B0: Bechamel micro-benchmarks (ns per run, OLS estimate)";
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let test = Test.make_grouped ~name:"lisa" (micro_tests ()) in
  let raw = Benchmark.all cfg instances test in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-52s %14.0f ns/run\n" name est
      | Some _ | None -> Printf.printf "%-52s %14s\n" name "n/a")
    (List.sort compare rows)

(* Hash-consed formula core: intern throughput plus the before/after
   verdict-memo key cost, written to BENCH_formula.json.  "before" is the
   pre-interning design — the memo keyed by the canonical rendering of the
   simplified formula, re-rendered on every lookup; "after" keys the same
   table by the interned formula's int id.  Both sides pay the same
   (memoized) simplify, so the delta isolates the key computation. *)
let run_formula () =
  section "formula: hash-consed core — intern throughput, memo key cost";
  let iters = if !smoke_flag then 20_000 else 400_000 in
  let mk i =
    let v s = Smt.Formula.tvar (Printf.sprintf "%s%d" s (i land 63)) in
    Smt.Formula.conj
      [
        Smt.Formula.neq (v "Session") Smt.Formula.tnull;
        Smt.Formula.eq (v "Session.closing") (Smt.Formula.tbool false);
        Smt.Formula.gt (v "Session.ttl") (Smt.Formula.tint (i land 15));
      ]
  in
  let now () = Unix.gettimeofday () in
  (* 1. intern throughput: after warm-up every rebuild is pure hit path *)
  ignore (mk 0);
  let h0 = Smt.Formula.intern_hits () and m0 = Smt.Formula.intern_misses () in
  let t0 = now () in
  for i = 1 to iters do
    ignore (mk i)
  done;
  let intern_ns = 1e9 *. (now () -. t0) /. float_of_int iters in
  let hits = Smt.Formula.intern_hits () - h0
  and misses = Smt.Formula.intern_misses () - m0 in
  (* 2. memo probes: id key vs rendered-string key over the same entries *)
  let formulas = Array.init 64 mk in
  let id_tbl : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  let str_tbl : (string, bool) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun f ->
      let s = Smt.Formula.simplify f in
      Hashtbl.replace id_tbl (Smt.Formula.id s) true;
      Hashtbl.replace str_tbl (Smt.Formula.to_string s) true)
    formulas;
  let t1 = now () in
  for i = 1 to iters do
    let f = formulas.(i land 63) in
    ignore (Hashtbl.find_opt id_tbl (Smt.Formula.id (Smt.Formula.simplify f)))
  done;
  let id_ns = 1e9 *. (now () -. t1) /. float_of_int iters in
  let t2 = now () in
  for i = 1 to iters do
    let f = formulas.(i land 63) in
    ignore
      (Hashtbl.find_opt str_tbl (Smt.Formula.to_string (Smt.Formula.simplify f)))
  done;
  let str_ns = 1e9 *. (now () -. t2) /. float_of_int iters in
  let speedup = if id_ns > 0. then str_ns /. id_ns else infinity in
  (* 3. scaling: warm hit-path interning, jobs=1 vs jobs=N over the
     shared sharded table.  Every domain rebuilds the same 64 formulas,
     so after warm-up the whole workload is the lock-free bucket probe;
     throughput should grow near-linearly with domains on multicore
     hardware (the gate below only fires when the machine has the
     cores to show it). *)
  let cores = Domain.recommended_domain_count () in
  let scale_iters = max 1 (iters / 4) in
  let jobs_levels = [ 1; 2; 4; 8 ] in
  let throughput_at jobs =
    let work () =
      for i = 1 to scale_iters do
        ignore (mk i)
      done
    in
    let t0 = now () in
    (if jobs <= 1 then work ()
     else begin
       let ds = List.init (jobs - 1) (fun _ -> Domain.spawn work) in
       work ();
       List.iter Domain.join ds
     end);
    let dt = now () -. t0 in
    if dt > 0. then float_of_int (jobs * scale_iters) /. dt else infinity
  in
  let tps = List.map (fun j -> (j, throughput_at j)) jobs_levels in
  let tp j = List.assoc j tps in
  let scale8 = if tp 1 > 0. then tp 8 /. tp 1 else infinity in
  (* identity gate: a construction on a spawned domain is physically
     the calling domain's construction *)
  let remote = Domain.join (Domain.spawn (fun () -> Array.init 64 mk)) in
  let identity_ok = Array.for_all2 (fun a b -> a == b) formulas remote in
  let scale_gate =
    if !smoke_flag then "skipped (smoke)"
    else if cores < 8 then Printf.sprintf "skipped (%d core(s) < 8)" cores
    else "enforced"
  in
  List.iter
    (fun (j, v) ->
      Printf.printf "scaling: jobs=%d %12.0f constructions/s\n" j v)
    tps;
  Printf.printf "scaling: jobs=8 speedup %.2fx over jobs=1 (%d core(s), %s)\n"
    scale8 cores scale_gate;
  let s = Smt.Formula.intern_stats () in
  Printf.printf "intern: %.0f ns/construction (%d hit(s), %d miss(es))\n"
    intern_ns hits misses;
  Printf.printf
    "tables: %d term(s), %d formula(s), %d string(s) live\n"
    s.Smt.Formula.term_stats.Core.Hc.size s.Smt.Formula.formula_stats.Core.Hc.size
    s.Smt.Formula.string_stats.Core.Hc.size;
  Printf.printf
    "memo key: string-keyed (before) %.0f ns, id-keyed (after) %.0f ns — %.1fx\n"
    str_ns id_ns speedup;
  let oc = open_out "BENCH_formula.json" in
  Printf.fprintf oc
    {|{
  "experiment": "formula",
  "smoke": %b,
  "iters": %d,
  "intern": { "ns_per_construction": %.1f, "hits": %d, "misses": %d,
              "terms": %d, "formulas": %d, "strings": %d },
  "memo_lookup": { "before_string_keyed_ns": %.1f,
                   "after_id_keyed_ns": %.1f,
                   "speedup": %.2f },
  "scaling": { "cores": %d, "per_domain_iters": %d,
               "constructions_per_s": { "jobs1": %.0f, "jobs2": %.0f,
                                        "jobs4": %.0f, "jobs8": %.0f },
               "speedup_jobs8": %.2f, "identity_ok": %b,
               "throughput_gate": "%s" }
}
|}
    !smoke_flag iters intern_ns hits misses
    s.Smt.Formula.term_stats.Core.Hc.size
    s.Smt.Formula.formula_stats.Core.Hc.size
    s.Smt.Formula.string_stats.Core.Hc.size str_ns id_ns speedup cores
    scale_iters (tp 1) (tp 2) (tp 4) (tp 8) scale8 identity_ok scale_gate;
  close_out oc;
  print_endline "wrote BENCH_formula.json";
  if id_ns >= str_ns then (
    prerr_endline "FAIL: id-keyed lookup must beat string-keyed lookup";
    exit 1);
  if not identity_ok then (
    prerr_endline
      "FAIL: cross-domain interning must return physically equal formulas";
    exit 1);
  if scale_gate = "enforced" && scale8 < 4.0 then (
    Printf.eprintf
      "FAIL: jobs=8 intern throughput %.2fx over jobs=1, need >= 4x\n" scale8;
    exit 1)

(* ------------------------------------------------------------------ *)
(* Solver benchmark                                                    *)
(* ------------------------------------------------------------------ *)

(* Incremental trie-driven trace checking vs per-trace from-scratch
   solving, on the E11 trace-check workload (every state-guard rule's
   concolic hits across versions v1/v2/v3/v5).  "from-scratch" resets
   the theory memo and the learned-conflict store before *every* trace —
   a fresh solver per query, the pre-incremental cost model — while the
   incremental leg builds one path-condition trie over all hits and
   walks it with a single assumption context and the verdict cache on —
   the exact configuration the engine's checker runs, every cache cold
   at the start of each timed run.  Verdicts (and models) must be
   byte-identical; the bench fails if they differ, if incremental is
   ever slower, or (non-smoke) if the speedup is below 3x.  Writes
   BENCH_solver.json. *)
let run_solver () =
  section "SOLVER: incremental prefix-sharing vs per-trace from-scratch";
  let registry = Corpus.Registry.builtin in
  let systems =
    if !smoke_flag then [ "zookeeper" ] else registry.Corpus.Registry.systems
  in
  (* the workload: (checker condition, hit) per trace, in engine order *)
  let cases =
    List.concat_map
      (fun system ->
        let book = Lisa.System_scan.learn_system_book ~registry system in
        List.concat_map
          (fun v ->
            let p = Corpus.Registry.program_of registry system ~version:v in
            let g = Analysis.Callgraph.build p in
            List.concat_map
              (fun rule ->
                let pr = Engine.Checker.prepare ~graph:g p rule in
                match Engine.Checker.guard_evidence p pr with
                | None -> []
                | Some (condition, hits) ->
                    List.map (fun h -> (condition, h)) hits)
              (Semantics.Rulebook.rules book))
          registry.Corpus.Registry.scan_versions)
      systems
  in
  let ntraces = List.length cases in
  Printf.printf "workload: %d system(s), %d trace check(s)%s\n\n"
    (List.length systems) ntraces
    (if !smoke_flag then " (smoke)" else "");
  let render = function
    | Smt.Solver.Verified -> "verified"
    | Smt.Solver.Violation m -> "violation " ^ Smt.Solver.model_to_string m
    | Smt.Solver.Undecided r -> "undecided " ^ r
  in
  let fresh_state () =
    Smt.Solver.reset_theory_memo ();
    Smt.Solver.reset_learned ()
  in
  (* per-trace from-scratch: a cold solver for every single query *)
  let run_scratch () =
    List.map
      (fun (condition, h) ->
        fresh_state ();
        let pc = Symexec.Concolic.hit_pc_formula h in
        render (Smt.Solver.check_trace ~pc ~checker:condition))
      cases
  in
  (* incremental: one trie over all traces, one assumption context, the
     verdict cache on (cold) — the engine checker's configuration *)
  let run_incremental () =
    fresh_state ();
    Smt.Memo.reset ();
    let memo_was = Smt.Memo.enabled () in
    Smt.Memo.set_enabled true;
    Fun.protect ~finally:(fun () -> Smt.Memo.set_enabled memo_was)
    @@ fun () ->
    let trie = Smt.Pctrie.create () in
    List.iteri
      (fun i (condition, h) ->
        Smt.Pctrie.add trie
          ~pc:(Symexec.Concolic.hit_pc_snapshot h)
          (i, condition, h))
      cases;
    let results = Array.make (max 1 ntraces) "" in
    let ctx = Smt.Solver.create_context () in
    Smt.Pctrie.walk trie
      ~enter:(fun f -> Smt.Solver.push ctx f)
      ~leave:(fun _ -> Smt.Solver.pop ctx)
      ~leaf:(fun (i, condition, h) ->
        let pc = Symexec.Concolic.hit_pc_formula h in
        results.(i) <-
          render (Smt.Memo.check_trace_in ctx ~pc ~checker:condition));
    (trie, Array.to_list (Array.sub results 0 ntraces))
  in
  let now () = Unix.gettimeofday () in
  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  let repeats = 3 in
  let best f =
    let rec go best_r best_t k =
      if k = 0 then (best_r, best_t)
      else
        let r, t = time f in
        if t < best_t then go r t (k - 1) else go best_r best_t (k - 1)
    in
    let r, t = time f in
    go r t (repeats - 1)
  in
  (* the classic scratch-vs-incremental columns isolate the prefix
     sharing architecture on the full DPLL(T) path, so the pre-solver
     fast path is pinned off here; it gets its own off/on legs below *)
  let fp_was = Smt.Solver.fastpath_enabled () in
  Smt.Solver.set_fastpath_enabled false;
  let count = Telemetry.Metrics.value in
  let push0 = count Smt.Solver.assume_pushes
  and prop0 = count Smt.Solver.propagations
  and learn0 = count Smt.Solver.learned_conflicts in
  let scratch_verdicts, t_scratch = best run_scratch in
  let (trie, inc_verdicts), t_inc = best run_incremental in
  let pushes = count Smt.Solver.assume_pushes - push0
  and props = count Smt.Solver.propagations - prop0
  and learned = count Smt.Solver.learned_conflicts - learn0 in
  Smt.Solver.set_fastpath_enabled fp_was;
  fresh_state ();
  (* fast path off vs on: one counted incremental pass each way.  The
     reduction metric is full DPLL(T) searches actually run; verdicts
     must stay byte-identical (the fast path may only change cost). *)
  let count_full leg =
    let f0 = Smt.Solver.full_solve_count () in
    let r, t = time leg in
    (r, t, Smt.Solver.full_solve_count () - f0)
  in
  Smt.Solver.set_fastpath_enabled false;
  let (_, fp_off_verdicts), t_fp_off, full_off = count_full run_incremental in
  Smt.Solver.set_fastpath_enabled true;
  let saved0 = count Smt.Solver.fastpath_saved in
  let (_, fp_on_verdicts), t_fp_on, full_on = count_full run_incremental in
  let fp_saved = count Smt.Solver.fastpath_saved - saved0 in
  Smt.Solver.set_fastpath_enabled fp_was;
  fresh_state ();
  let fp_reduction =
    if full_off > 0 then 1. -. (float_of_int full_on /. float_of_int full_off)
    else 0.
  in
  Printf.printf
    "fastpath: %d full solve(s) off, %d on — %.0f%% fewer, %d retired by the \
     ladder\n"
    full_off full_on (100. *. fp_reduction) fp_saved;
  (* scaling: per-trace checking on a *persistent* pool at jobs=1 vs
     jobs=N, every domain sharing the sharded verdict cache, the
     sharded interner, and the batched learned-clause store.  The pool
     is created once per jobs level and reused across the repeat
     measurements — domain spawn cost (milliseconds, which used to
     drown this sub-millisecond workload and made jobs=8 look slower
     than jobs=1) is recorded separately, never folded into batch wall
     time.  Tiny workloads are amplified to >= 1024 checks per batch
     (slot k maps to case k mod n, so the leading slice is the original
     workload for the identity gate).  Verdicts must be byte-identical
     at every width; throughput is gated only on hardware that can show
     scaling, but the no-slowdown gate always runs. *)
  let cores = Domain.recommended_domain_count () in
  let jobs_levels = [ 1; 2; 4; 8 ] in
  let cases_arr = Array.of_list cases in
  let amp = max 1 ((1024 + ntraces - 1) / ntraces) in
  let work = Array.init (amp * ntraces) (fun k -> cases_arr.(k mod ntraces)) in
  let run_batch pool () =
    fresh_state ();
    Smt.Memo.reset ();
    let memo_was = Smt.Memo.enabled () in
    Smt.Memo.set_enabled true;
    Fun.protect ~finally:(fun () -> Smt.Memo.set_enabled memo_was)
    @@ fun () ->
    Engine.Pool.persistent_map pool
      (fun (condition, h) ->
        let pc = Symexec.Concolic.hit_pc_formula h in
        render (Smt.Memo.check_trace ~pc ~checker:condition))
      work
  in
  let par =
    List.map
      (fun j ->
        let pool =
          Engine.Pool.create_persistent ~init:Engine.Domain_ctx.enter
            ~finish:Engine.Domain_ctx.leave ~jobs:j ()
        in
        let r, t = best (run_batch pool) in
        let spawn = Engine.Pool.persistent_spawn_s pool in
        Engine.Pool.shutdown pool;
        (j, Array.to_list (Array.sub r 0 ntraces), t, spawn))
      jobs_levels
  in
  fresh_state ();
  let par_find j = List.find (fun (j', _, _, _) -> j' = j) par in
  let par_t j =
    let _, _, t, _ = par_find j in
    t
  in
  let par_spawn j =
    let _, _, _, s = par_find j in
    s
  in
  let par_identical =
    List.for_all (fun (_, r, _, _) -> r = scratch_verdicts) par
  in
  let par_scale8 =
    if par_t 8 > 0. then par_t 1 /. par_t 8 else infinity
  in
  let par_gate =
    if !smoke_flag then "skipped (smoke)"
    else if cores < 8 then Printf.sprintf "skipped (%d core(s) < 8)" cores
    else "enforced"
  in
  List.iter
    (fun (j, _, t, spawn) ->
      Printf.printf
        "scaling: jobs=%d %8.2f ms/batch (%d check(s); spawn %6.2f ms, \
         excluded)\n"
        j (1000. *. t) (amp * ntraces) (1000. *. spawn))
    par;
  Printf.printf "scaling: jobs=8 speedup %.2fx over jobs=1 (%d core(s), %s)\n"
    par_scale8 cores par_gate;
  let speedup = if t_inc > 0. then t_scratch /. t_inc else infinity in
  Printf.printf "from-scratch: %8.2f ms (%d trace(s), best of %d)\n"
    (1000. *. t_scratch) ntraces repeats;
  Printf.printf "incremental:  %8.2f ms — %.1fx\n" (1000. *. t_inc) speedup;
  Printf.printf
    "trie: %d node(s), %d shared, %d leave(s); %d push(es), %d \
     propagation(s), %d learned conflict(s)\n"
    (Smt.Pctrie.node_count trie)
    (Smt.Pctrie.shared_count trie)
    (Smt.Pctrie.leaf_count trie)
    pushes props learned;
  let oc = open_out "BENCH_solver.json" in
  Printf.fprintf oc
    {|{
  "experiment": "solver",
  "smoke": %b,
  "traces": %d,
  "repeats": %d,
  "trie": { "nodes": %d, "shared": %d, "leaves": %d },
  "incremental_counters": { "assume_pushes": %d, "propagations": %d,
                            "learned_conflicts": %d },
  "wall_s": { "from_scratch": %.6f, "incremental": %.6f },
  "speedup": %.2f,
  "verdicts_identical": %b,
  "fastpath": { "full_solves_off": %d, "full_solves_on": %d,
                "reduction": %.3f, "saved": %d,
                "wall_s_off": %.6f, "wall_s_on": %.6f,
                "verdicts_identical": %b },
  "scaling": { "cores": %d, "batch_checks": %d,
               "wall_s": { "jobs1": %.6f, "jobs2": %.6f,
                           "jobs4": %.6f, "jobs8": %.6f },
               "spawn_s": { "jobs1": %.6f, "jobs2": %.6f,
                            "jobs4": %.6f, "jobs8": %.6f },
               "speedup_jobs8": %.2f, "verdicts_identical": %b,
               "throughput_gate": "%s" }
}
|}
    !smoke_flag ntraces repeats
    (Smt.Pctrie.node_count trie)
    (Smt.Pctrie.shared_count trie)
    (Smt.Pctrie.leaf_count trie)
    pushes props learned t_scratch t_inc speedup
    (scratch_verdicts = inc_verdicts)
    full_off full_on fp_reduction fp_saved t_fp_off t_fp_on
    (fp_off_verdicts = fp_on_verdicts)
    cores (amp * ntraces) (par_t 1) (par_t 2) (par_t 4) (par_t 8)
    (par_spawn 1) (par_spawn 2) (par_spawn 4) (par_spawn 8) par_scale8
    par_identical par_gate;
  close_out oc;
  print_endline "wrote BENCH_solver.json";
  let check cond msg =
    if cond then Printf.printf "OK: %s\n" msg
    else begin
      Printf.printf "FAIL: %s\n" msg;
      exit 1
    end
  in
  check
    (scratch_verdicts = inc_verdicts)
    "verdicts and models byte-identical, incremental vs from-scratch";
  check (t_inc <= t_scratch)
    (Printf.sprintf "incremental never loses (%.2f ms <= %.2f ms)"
       (1000. *. t_inc) (1000. *. t_scratch));
  check par_identical
    "verdicts byte-identical at jobs=1/2/4/8 on the shared caches";
  check
    (fp_off_verdicts = fp_on_verdicts && fp_on_verdicts = inc_verdicts)
    "verdicts byte-identical with the fast path on vs off";
  check (fp_saved > 0)
    (Printf.sprintf "fast path retires queries (%d saved > 0)" fp_saved);
  check (fp_reduction >= 0.25)
    (Printf.sprintf "fast path cuts full solves by %.0f%% >= 25%% (%d -> %d)"
       (100. *. fp_reduction) full_off full_on);
  check
    (par_t 8 <= par_t 1 +. 0.005)
    (Printf.sprintf
       "persistent pool: jobs=8 batch %.2f ms within 5 ms of jobs=1 %.2f ms \
        (spawn cost excluded)"
       (1000. *. par_t 8) (1000. *. par_t 1));
  if not !smoke_flag then
    check (speedup >= 3.0)
      (Printf.sprintf "speedup %.1fx >= 3x on the full workload" speedup);
  if par_gate = "enforced" then
    check (par_scale8 >= 4.0)
      (Printf.sprintf "jobs=8 scaling %.1fx >= 4x over jobs=1" par_scale8)
  else Printf.printf "SKIP: jobs=8 throughput gate (%s)\n" par_gate

(* ------------------------------------------------------------------ *)
(* Serve-daemon benchmark                                              *)
(* ------------------------------------------------------------------ *)

(* The enforcement daemon under a mixed multi-tenant workload, three
   phases over the identical request list:

     cold    — fresh daemon, empty cache dir: every request runs the
               engine from scratch
     warm    — the same daemon again: in-memory response cache +
               Smt.Memo hits
     restart — a *new* daemon process-state warmed only from the disk
               snapshots the cold phase saved: the persistence path

   Gates: warm and restart verdicts byte-identical (verdict_signature)
   to cold, restart actually hits the persisted response cache, warm
   total time never exceeds cold, and a corrupted snapshot falls back
   to a clean cold start instead of crashing.  Writes BENCH_serve.json
   with sustained req/s and p50/p99 latency per phase. *)
let run_serve () =
  section "SERVE: daemon throughput, warm-cache persistence, byte-identity";
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ()) "lisa-bench-serve-cache"
  in
  if Sys.file_exists cache_dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat cache_dir f))
      (Sys.readdir cache_dir)
  else Unix.mkdir cache_dir 0o755;
  let registry = Corpus.Registry.builtin in
  let systems =
    if !smoke_flag then [ "zookeeper" ] else registry.Corpus.Registry.systems
  in
  let versions =
    if !smoke_flag then [ 1; 5 ] else registry.Corpus.Registry.scan_versions
  in
  let tenants = [| "alpha"; "beta"; "gamma" |] in
  let requests =
    List.concat_map
      (fun system ->
        List.mapi
          (fun i version ->
            Printf.sprintf
              "{\"id\":\"%s-v%d\",\"tenant\":\"%s\",\"op\":\"enforce\",\"system\":\"%s\",\"version\":%d}"
              system version
              tenants.(i mod Array.length tenants)
              system version)
          versions)
      systems
  in
  let n = List.length requests in
  Printf.printf "workload: %d request(s), %d system(s), %d tenant(s)%s\n" n
    (List.length systems) (Array.length tenants)
    (if !smoke_flag then " (smoke)" else "");
  let serve_config =
    { Serve.Daemon.default_config with Serve.Daemon.cache_dir = Some cache_dir }
  in
  (* drive the full JSONL path; returns (signature list, latencies ms) *)
  let drive d =
    let lat = Array.make n 0. in
    let sigs =
      List.mapi
        (fun i line ->
          let t0 = Unix.gettimeofday () in
          let resp = Serve.Daemon.handle_line d line in
          lat.(i) <- 1000. *. (Unix.gettimeofday () -. t0);
          Serve.Protocol.verdict_signature resp)
        requests
    in
    (sigs, lat)
  in
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.
    else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let phase name d =
    let sigs, lat = drive d in
    let total = Array.fold_left ( +. ) 0. lat in
    let sorted = Array.copy lat in
    Array.sort compare sorted;
    let p50 = percentile sorted 0.50 and p99 = percentile sorted 0.99 in
    let rps = if total > 0. then 1000. *. float_of_int n /. total else 0. in
    Printf.printf
      "%-8s total %8.1f ms   p50 %7.2f ms   p99 %7.2f ms   %8.1f req/s\n" name
      total p50 p99 rps;
    (sigs, total, p50, p99, rps)
  in
  let cold_d = Serve.Daemon.create ~config:serve_config () in
  let cold = phase "cold" cold_d in
  let warm = phase "warm" cold_d in
  let saved = Serve.Daemon.save cold_d in
  Printf.printf "snapshots: %d entrie(s) persisted to %s\n" saved cache_dir;
  let restart_d = Serve.Daemon.create ~config:serve_config () in
  let restart = phase "restart" restart_d in
  let restart_hits = List.assoc "cache_hits" (Serve.Daemon.counters restart_d) in
  (* corruption: stomp the response snapshot, daemon must start cold *)
  let resp_snap = Filename.concat cache_dir "responses.snap" in
  let oc = open_out_bin resp_snap in
  output_string oc "LISA-SNAP garbage not a real header\nrandom bytes";
  close_out oc;
  let corrupt_d = Serve.Daemon.create ~config:serve_config () in
  let corrupt_report = Serve.Daemon.warm_report corrupt_d in
  let corrupt_cold =
    match List.assoc_opt "responses" corrupt_report with
    | Some r -> String.length r >= 4 && String.sub r 0 4 = "cold"
    | None -> false
  in
  let corrupt_serves =
    match Serve.Daemon.handle_line corrupt_d (List.hd requests) with
    | Serve.Protocol.Ok_enforce _ -> true
    | _ -> false
  in
  List.iter
    (fun (k, v) -> Printf.printf "corrupt-snapshot start: %s -> %s\n" k v)
    corrupt_report;
  let sigs_of (s, _, _, _, _) = s in
  let total_of (_, t, _, _, _) = t in
  let warm_identical = sigs_of warm = sigs_of cold in
  let restart_identical = sigs_of restart = sigs_of cold in
  let speedup =
    if total_of warm > 0. then total_of cold /. total_of warm else 0.
  in
  let oc = open_out "BENCH_serve.json" in
  let phase_json (_, total, p50, p99, rps) =
    Printf.sprintf
      "{ \"total_ms\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"req_per_s\": %.1f }"
      total p50 p99 rps
  in
  Printf.fprintf oc
    {|{
  "experiment": "serve",
  "smoke": %b,
  "requests": %d,
  "tenants": %d,
  "cold": %s,
  "warm": %s,
  "restart": %s,
  "warm_speedup": %.1f,
  "restart_cache_hits": %d,
  "warm_verdicts_identical": %b,
  "restart_verdicts_identical": %b,
  "corrupt_snapshot_cold_fallback": %b
}
|}
    !smoke_flag n (Array.length tenants) (phase_json cold) (phase_json warm)
    (phase_json restart) speedup restart_hits warm_identical restart_identical
    (corrupt_cold && corrupt_serves);
  close_out oc;
  print_endline "wrote BENCH_serve.json";
  let check cond msg =
    if cond then Printf.printf "OK: %s\n" msg
    else begin
      Printf.printf "FAIL: %s\n" msg;
      exit 1
    end
  in
  check warm_identical "warm verdicts byte-identical to cold";
  check restart_identical
    "restart-from-snapshot verdicts byte-identical to cold";
  check (restart_hits > 0) "restart served from the persisted response cache";
  check
    (total_of warm <= total_of cold)
    (Printf.sprintf "warm never loses (%.1f ms <= %.1f ms, %.1fx)"
       (total_of warm) (total_of cold) speedup);
  check
    (corrupt_cold && corrupt_serves)
    "corrupted snapshot -> clean cold start, requests still served"

(* ------------------------------------------------------------------ *)
(* Witness-replay triage benchmark                                     *)
(* ------------------------------------------------------------------ *)

(* The E11 workload judged by witness-replay triage, twice:

     clean — the real oracle: every finding must keep a Witnessed or
             Consistent tier (zero-loss: triage never demotes a true
             positive)
     noisy — a fully hallucinating oracle (epsilon 1.0, cross-checking
             off so corrupted rules reach enforcement at all): findings
             of flipped rules are the injected false positives, and
             >= 70% of them must rank Likely-FP, while genuine findings
             in the same noisy run keep their tier

   Plus two structural gates: a disabled triage config leaves the scan
   output byte-identical to no triage at all, and tier assignment is
   deterministic — identical across repeated runs and jobs=1 vs jobs=4
   for a fixed noise seed.  Writes BENCH_triage.json. *)
let run_triage () =
  section "TRIAGE: witness-replay tiers vs a hallucinating oracle";
  let scan ?(noise = Oracle.Inference.no_noise) ?(cross_check = true)
      ?(jobs = 1) ?triage () =
    Lisa.Chaos.reset_shared_state ();
    let config =
      { Lisa.Pipeline.default_config with Lisa.Pipeline.noise; cross_check }
    in
    let engine_config =
      { Engine.Scheduler.default_config with Engine.Scheduler.jobs }
    in
    fst (Lisa.System_scan.run_engine ~config ~engine_config ?triage ())
  in
  (* flatten to (system, version, rule id, tier) rows *)
  let tier_rows results =
    List.concat_map
      (fun (r : Lisa.System_scan.system_result) ->
        List.concat_map
          (fun (vr : Lisa.System_scan.version_row) ->
            List.map
              (fun (id, t) ->
                ( r.Lisa.System_scan.sys_name,
                  vr.Lisa.System_scan.vr_version,
                  id,
                  t ))
              vr.Lisa.System_scan.vr_tiers)
          r.Lisa.System_scan.sys_rows)
      results
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (* the noise marker lands in the rule id before generalization, so a
     corrupted rule reads e.g. HBASE-22380.g29.flip.gen; weakened rules
     stay genuine (their violations are a subset of the baseline's) *)
  let injected id = contains id ".flip." || contains id ".ghost." in
  (* gate 1: disabled triage is invisible — scan output byte-identical *)
  let plain = Lisa.System_scan.print (scan ()) in
  let disabled =
    Lisa.System_scan.print
      (scan ~triage:{ Triage.default_config with Triage.enabled = false } ())
  in
  let disabled_identical = plain = disabled && not (contains plain "[triage:") in
  Printf.printf "disabled-identity: %b\n" disabled_identical;
  (* gate 2: zero-loss on the clean corpus *)
  let clean = tier_rows (scan ~triage:Triage.default_config ()) in
  let count t = List.length (List.filter (fun (_, _, _, t') -> t' = t) clean) in
  let clean_w = count "witnessed" and clean_c = count "consistent" in
  let clean_fp = count "likely-fp" in
  Printf.printf
    "clean corpus: %d finding(s) tiered — %d witnessed, %d consistent, %d \
     likely-fp\n"
    (List.length clean) clean_w clean_c clean_fp;
  (* gate 3: injected-FP demotion per seed under a fully noisy oracle *)
  let seeds = if !smoke_flag then [ 7 ] else [ 7; 11; 13 ] in
  let noisy seed ~jobs =
    tier_rows
      (scan
         ~noise:{ Oracle.Inference.epsilon = 1.0; seed }
         ~cross_check:false ~jobs ~triage:Triage.default_config ())
  in
  let per_seed =
    List.map
      (fun seed ->
        let rows = noisy seed ~jobs:1 in
        let inj = List.filter (fun (_, _, id, _) -> injected id) rows in
        let demoted =
          List.filter (fun (_, _, _, t) -> t = "likely-fp") inj
        in
        let genuine_demoted =
          List.filter
            (fun (_, _, id, t) -> (not (injected id)) && t = "likely-fp")
            rows
        in
        let rate =
          if inj = [] then 0.
          else float_of_int (List.length demoted) /. float_of_int (List.length inj)
        in
        Printf.printf
          "seed %2d: %2d finding(s), %2d injected FP(s), %2d demoted \
           (%.0f%%), %d genuine demoted\n"
          seed (List.length rows) (List.length inj) (List.length demoted)
          (100. *. rate)
          (List.length genuine_demoted);
        (seed, rows, List.length inj, List.length demoted, rate,
         List.length genuine_demoted))
      seeds
  in
  (* gate 4: determinism — repeated run and jobs=4 agree with jobs=1 *)
  let det_seed = List.hd seeds in
  let reference =
    match per_seed with (_, rows, _, _, _, _) :: _ -> rows | [] -> []
  in
  let repeat_same = noisy det_seed ~jobs:1 = reference in
  let jobs4_same = noisy det_seed ~jobs:4 = reference in
  Printf.printf "determinism (seed %d): repeat %b, jobs=4 %b\n" det_seed
    repeat_same jobs4_same;
  let oc = open_out "BENCH_triage.json" in
  Printf.fprintf oc
    {|{
  "experiment": "triage",
  "smoke": %b,
  "clean": { "findings": %d, "witnessed": %d, "consistent": %d, "likely_fp": %d },
  "noisy": [%s],
  "disabled_identical": %b,
  "deterministic": %b
}
|}
    !smoke_flag (List.length clean) clean_w clean_c clean_fp
    (String.concat ", "
       (List.map
          (fun (seed, rows, inj, dem, rate, gd) ->
            Printf.sprintf
              "{ \"seed\": %d, \"findings\": %d, \"injected\": %d, \
               \"demoted\": %d, \"rate\": %.3f, \"genuine_demoted\": %d }"
              seed (List.length rows) inj dem rate gd)
          per_seed))
    disabled_identical (repeat_same && jobs4_same);
  close_out oc;
  print_endline "wrote BENCH_triage.json";
  let check cond msg =
    if cond then Printf.printf "OK: %s\n" msg
    else begin
      Printf.printf "FAIL: %s\n" msg;
      exit 1
    end
  in
  check disabled_identical
    "triage disabled: scan output byte-identical, no tier markers";
  check (clean <> []) "clean corpus: findings were tiered";
  check (clean_fp = 0)
    "zero-loss: no clean-corpus finding demoted to Likely-FP";
  List.iter
    (fun (seed, _, inj, _, rate, gd) ->
      check (inj > 0)
        (Printf.sprintf "seed %d: noise injected false positives" seed);
      check (rate >= 0.7)
        (Printf.sprintf "seed %d: >= 70%% of injected FPs demoted (%.0f%%)"
           seed (100. *. rate));
      check (gd = 0)
        (Printf.sprintf "seed %d: no genuine finding demoted" seed))
    per_seed;
  check repeat_same "tiers identical across repeated runs (fixed seed)";
  check jobs4_same "tiers identical jobs=1 vs jobs=4"

(* ------------------------------------------------------------------ *)
(* Scaling benchmark: synthetic corpora                                *)
(* ------------------------------------------------------------------ *)

(* The seeded procedural generator (Corpus.Synth) at 1x/10x/100x the
   builtin corpus, pushed through the unchanged pipeline:

     generate — registry values from the same seed must be
                byte-identical, and every generated case must pass
                Case.validate
     scan     — whole-system enforcement over every synthetic system:
                zero-loss (each case's planted rule fires at v2 of its
                system and nowhere else; v1/v3 are completely clean),
                a jobs sweep (2/4/8) gated byte-identical to the jobs=1
                reference, and a pre-solver fast path off/on pair gated
                byte-identical with >= 25% fewer full DPLL(T) searches
                at scale 1x (reduction reported at larger scales)
     ci       — gated replay over (a cap of) the generated cases:
                every history blocks exactly its regression stage

   Writes BENCH_scale.json with per-scale throughput, engine cache-hit
   rates, peak heap size, per-width scan times and the fast-path
   full-solve columns.  `--smoke` runs scales 1x/2x with a small CI
   cap — the `make scale-smoke` / `make check` fast path. *)
let run_scale () =
  section "SCALE: seeded synthetic corpora at 1x/10x/100x";
  let seed = 42 in
  let scales = if !smoke_flag then [ 1; 2 ] else [ 1; 10; 100 ] in
  let ci_cap = if !smoke_flag then 8 else 160 in
  let check cond msg =
    if cond then Printf.printf "OK: %s\n" msg
    else begin
      Printf.printf "FAIL: %s\n" msg;
      exit 1
    end
  in
  let now () = Unix.gettimeofday () in
  (* one byte-stable rendering of everything the generator decides:
     assembled sources at every scan version plus the commit history *)
  let registry_signature (r : Corpus.Registry.t) =
    String.concat "\n"
      (List.concat_map
         (fun system ->
           List.map
             (fun v -> Corpus.Registry.source_of r system ~version:v)
             r.Corpus.Registry.scan_versions
           @ List.map
               (fun (v, msg) -> Printf.sprintf "%s@v%d %s" system v msg)
               (Corpus.Registry.history_of r system))
         r.Corpus.Registry.systems)
  in
  let scan ~jobs reg =
    Lisa.Chaos.reset_shared_state ();
    let engine_config =
      { Engine.Scheduler.default_config with Engine.Scheduler.jobs }
    in
    Lisa.System_scan.run_engine ~engine_config ~registry:reg ()
  in
  let rate hits misses =
    let total = hits + misses in
    if total = 0 then 0. else float_of_int hits /. float_of_int total
  in
  let starts_with ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let points =
    List.map
      (fun scale ->
        let t0 = now () in
        let reg = Corpus.Synth.registry ~seed ~scale () in
        let gen_s = now () -. t0 in
        let n_cases = Corpus.Registry.case_count reg in
        let n_systems = List.length reg.Corpus.Registry.systems in
        Printf.printf
          "\n-- scale %dx: %d system(s), %d case(s), generated in %.3f s\n"
          scale n_systems n_cases gen_s;
        (* gate: the generator is a pure function of (seed, scale) *)
        let identical =
          registry_signature reg
          = registry_signature (Corpus.Synth.registry ~seed ~scale ())
        in
        check identical
          (Printf.sprintf
             "scale %dx: same seed regenerates a byte-identical registry"
             scale);
        (* gate: every generated case passes the corpus validator *)
        let invalid =
          List.filter_map
            (fun (c : Corpus.Case.t) ->
              Option.map
                (fun m -> c.Corpus.Case.case_id ^ ": " ^ m)
                (Corpus.Synth.validate_failure c))
            reg.Corpus.Registry.cases
        in
        List.iter (fun m -> Printf.printf "INVALID %s\n" m) invalid;
        check (invalid = [])
          (Printf.sprintf "scale %dx: all %d case(s) pass Case.validate"
             scale n_cases);
        (* scan leg: whole-system enforcement over the synthetic corpus *)
        let t1 = now () in
        let results, stats = scan ~jobs:1 reg in
        let scan_s = now () -. t1 in
        let row system v =
          let sys =
            List.find
              (fun r -> r.Lisa.System_scan.sys_name = system)
              results
          in
          List.find
            (fun vr -> vr.Lisa.System_scan.vr_version = v)
            sys.Lisa.System_scan.sys_rows
        in
        (* zero-loss: every planted rule fires at v2 of its system; the
           clean releases v1/v3 have no findings at all *)
        let missed =
          List.filter_map
            (fun (c : Corpus.Case.t) ->
              let tid =
                (Corpus.Case.original_ticket c).Oracle.Ticket.ticket_id
              in
              if
                List.exists
                  (starts_with ~prefix:tid)
                  (row c.Corpus.Case.system 2).Lisa.System_scan
                    .vr_violating_rules
              then None
              else Some (c.Corpus.Case.case_id ^ ": " ^ tid))
            reg.Corpus.Registry.cases
        in
        List.iter (fun m -> Printf.printf "MISSED at v2: %s\n" m) missed;
        check (missed = [])
          (Printf.sprintf
             "scale %dx: all %d planted bug(s) caught at v2 (zero-loss)"
             scale n_cases);
        let clean_noise =
          List.concat_map
            (fun system ->
              List.concat_map
                (fun v ->
                  List.map
                    (fun id -> Printf.sprintf "%s v%d %s" system v id)
                    (row system v).Lisa.System_scan.vr_violating_rules)
                [ 1; 3 ])
            reg.Corpus.Registry.systems
        in
        List.iter (fun m -> Printf.printf "FALSE POSITIVE: %s\n" m)
          clean_noise;
        check (clean_noise = [])
          (Printf.sprintf
             "scale %dx: clean releases v1/v3 have zero findings" scale);
        (* jobs sweep: pool width must be invisible in the scan output
           at every level; the jobs=1 reference is the main scan above
           (scales 1x and 10x only — the 100x point would multiply the
           most expensive leg).  Per-width wall time is a reported
           column, not a gate: this box may have a single core. *)
        let jobs_sweep =
          if scale <= 10 then
            List.map
              (fun jobs ->
                let t0 = now () in
                let results_j, _ = scan ~jobs reg in
                let t = now () -. t0 in
                check
                  (Lisa.System_scan.print results
                  = Lisa.System_scan.print results_j)
                  (Printf.sprintf
                     "scale %dx: scan output byte-identical jobs=1 vs \
                      jobs=%d"
                     scale jobs);
                (jobs, t))
              [ 2; 4; 8 ]
          else []
        in
        List.iter
          (fun (j, t) ->
            Printf.printf "jobs=%d scan %8.2f s (jobs=1 %8.2f s)\n" j t
              scan_s)
          jobs_sweep;
        (* fast path off vs on at jobs=1: full DPLL(T) searches actually
           run, on byte-identical scan output.  Every shared solver
           cache is reset before each leg so both start cold — the
           verdict memo alone would otherwise hand the second leg a
           free ride. *)
        let fp_point =
          if scale <= 10 then begin
            let fp_leg enabled =
              Smt.Solver.reset_theory_memo ();
              Smt.Solver.reset_learned ();
              Smt.Absdom.reset_memo ();
              let was = Smt.Solver.fastpath_enabled () in
              Smt.Solver.set_fastpath_enabled enabled;
              Fun.protect
                ~finally:(fun () -> Smt.Solver.set_fastpath_enabled was)
              @@ fun () ->
              let f0 = Smt.Solver.full_solve_count ()
              and s0 = Telemetry.Metrics.value Smt.Solver.fastpath_saved in
              let t0 = now () in
              let results_fp, _ = scan ~jobs:1 reg in
              let t = now () -. t0 in
              ( Lisa.System_scan.print results_fp,
                Smt.Solver.full_solve_count () - f0,
                Telemetry.Metrics.value Smt.Solver.fastpath_saved - s0,
                t )
            in
            let out_off, full_off, _, t_off = fp_leg false in
            let out_on, full_on, fp_saved, t_on = fp_leg true in
            check (out_off = out_on)
              (Printf.sprintf
                 "scale %dx: scan output byte-identical, fast path on vs \
                  off"
                 scale);
            let reduction =
              if full_off > 0 then
                1. -. (float_of_int full_on /. float_of_int full_off)
              else 0.
            in
            Printf.printf
              "fastpath: %d full solve(s) off, %d on — %.0f%% fewer, %d \
               retired by the ladder\n"
              full_off full_on (100. *. reduction) fp_saved;
            if scale = 1 then
              check (reduction >= 0.25)
                (Printf.sprintf
                   "scale 1x: fast path cuts full solves by %.0f%% >= \
                    25%% (%d -> %d)"
                   (100. *. reduction) full_off full_on);
            Some (full_off, full_on, reduction, fp_saved, t_off, t_on)
          end
          else None
        in
        (* ci leg: gated replay over (a cap of) the generated histories *)
        let ci_cases =
          List.filteri (fun i _ -> i < ci_cap) reg.Corpus.Registry.cases
        in
        if List.length ci_cases < n_cases then
          Printf.printf "ci: capped at %d of %d case(s)\n"
            (List.length ci_cases) n_cases;
        Lisa.Chaos.reset_shared_state ();
        let t2 = now () in
        let runs = List.map Lisa.Ci.replay ci_cases in
        let ci_s = now () -. t2 in
        let misgated =
          List.filter
            (fun r -> Lisa.Ci.blocked_stages r <> [ 2 ])
            runs
        in
        List.iter
          (fun (r : Lisa.Ci.run) ->
            Printf.printf "MISGATED %s: blocked %s\n" r.Lisa.Ci.case_id
              (String.concat ","
                 (List.map string_of_int (Lisa.Ci.blocked_stages r))))
          misgated;
        check (misgated = [])
          (Printf.sprintf
             "scale %dx: every gated history blocks exactly its \
              regression stage"
             scale);
        let peak_mb =
          float_of_int
            ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
          /. 1048576.
        in
        let scan_cps =
          if scan_s > 0. then float_of_int n_cases /. scan_s else 0.
        in
        let memo_rate =
          rate stats.Engine.Stats.smt_hits stats.Engine.Stats.smt_misses
        in
        let intern_rate =
          rate stats.Engine.Stats.intern_hits
            stats.Engine.Stats.intern_misses
        in
        Printf.printf
          "gen %8.3f s   scan %8.2f s (%6.1f case/s)   ci %8.2f s (%d \
           case(s))\n"
          gen_s scan_s scan_cps ci_s (List.length ci_cases);
        Printf.printf
          "memo hit rate %.2f   intern hit rate %.2f   peak heap %.1f MB\n"
          memo_rate intern_rate peak_mb;
        let jobs_json =
          match jobs_sweep with
          | [] -> ""
          | sweep ->
              Printf.sprintf ", \"jobs_scaling\": { \"jobs1_scan_s\": %.3f, %s }"
                scan_s
                (String.concat ", "
                   (List.map
                      (fun (j, t) ->
                        Printf.sprintf "\"jobs%d_scan_s\": %.3f" j t)
                      sweep))
        in
        let fp_json =
          match fp_point with
          | None -> ""
          | Some (full_off, full_on, reduction, fp_saved, t_off, t_on) ->
              Printf.sprintf
                ", \"fastpath\": { \"full_solves_off\": %d, \
                 \"full_solves_on\": %d, \"reduction\": %.3f, \"saved\": \
                 %d, \"scan_s_off\": %.3f, \"scan_s_on\": %.3f, \
                 \"output_identical\": true }"
                full_off full_on reduction fp_saved t_off t_on
        in
        Printf.sprintf
          "{ \"scale\": %d, \"systems\": %d, \"cases\": %d, \"gen_s\": \
           %.4f, \"scan_s\": %.3f, \"scan_cases_per_s\": %.1f, \"ci_s\": \
           %.3f, \"ci_cases\": %d, \"memo_hit_rate\": %.3f, \
           \"intern_hit_rate\": %.3f, \"peak_heap_mb\": %.1f%s%s }"
          scale n_systems n_cases gen_s scan_s scan_cps ci_s
          (List.length ci_cases) memo_rate intern_rate peak_mb jobs_json
          fp_json)
      scales
  in
  (* cross-scale gate: case k is scale-independent — the 1x corpus is a
     prefix of every larger one *)
  let reg1 = Corpus.Synth.registry ~seed ~scale:1 () in
  let reg_last =
    Corpus.Synth.registry ~seed ~scale:(List.hd (List.rev scales)) ()
  in
  let prefix_ok =
    List.for_all2
      (fun (a : Corpus.Case.t) (b : Corpus.Case.t) ->
        a.Corpus.Case.case_id = b.Corpus.Case.case_id
        && List.init a.Corpus.Case.n_stages a.Corpus.Case.source
           = List.init b.Corpus.Case.n_stages b.Corpus.Case.source)
      reg1.Corpus.Registry.cases
      (List.filteri
         (fun i _ -> i < Corpus.Registry.case_count reg1)
         reg_last.Corpus.Registry.cases)
  in
  check prefix_ok
    "case k is scale-independent: the 1x corpus is a byte-identical \
     prefix of the largest";
  let oc = open_out "BENCH_scale.json" in
  Printf.fprintf oc
    {|{
  "experiment": "scale",
  "smoke": %b,
  "seed": %d,
  "points": [%s],
  "gates": { "deterministic_registry": true, "all_cases_valid": true,
             "zero_loss_v2": true, "clean_v1_v3": true,
             "jobs_invariant": true, "fastpath_identical": true,
             "ci_gates_regression_stage": true,
             "scale_independent_cases": true }
}
|}
    !smoke_flag seed
    (String.concat ", " points);
  close_out oc;
  print_endline "wrote BENCH_scale.json"

let all_experiments : (string * (unit -> unit)) list =
  [
    ("study", run_study);
    ("zk-ephemeral", run_zk);
    ("comparison", run_comparison);
    ("workflow", run_workflow);
    ("generalize", run_generalize);
    ("unknown-bugs", run_unknown);
    ("ablations", run_ablations);
    ("noise", run_noise);
    ("system-scan", run_system_scan);
    ("composition", run_composition);
    ("ci", run_ci);
    ("engine", run_engine_bench);
    ("chaos", run_chaos);
    ("micro", run_micro);
    ("formula", run_formula);
    ("solver", run_solver);
    ("serve", run_serve);
    ("triage", run_triage);
    ("scale", run_scale);
  ]

let () =
  let rec strip = function
    | [] -> []
    | "--smoke" :: rest ->
        smoke_flag := true;
        strip rest
    | "--trace" :: path :: rest ->
        trace_path := Some path;
        strip rest
    | a :: rest -> a :: strip rest
  in
  let args = strip (Array.to_list Sys.argv) in
  if !trace_path <> None then Telemetry.Trace.set_enabled true;
  (match args with
  | _ :: "--experiment" :: name :: _ -> (
      match List.assoc_opt name all_experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst all_experiments));
          exit 1)
  | _ :: "--list" :: _ -> List.iter (fun (n, _) -> print_endline n) all_experiments
  | _ -> List.iter (fun (_, f) -> f ()) all_experiments);
  match !trace_path with
  | None -> ()
  | Some path ->
      Telemetry.Trace.export_to_file path;
      Printf.printf "\ntrace: %d event(s) written to %s\n\n%s"
        (Telemetry.Trace.event_count ())
        path
        (Telemetry.Trace.summary ())
