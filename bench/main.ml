(* Paper-artifact harness.

   One driver per paper artifact (see DESIGN.md experiment index):
     E1 study        — Figure 1 + §2.1 statistics
     E2 zk-ephemeral — Figures 2-3 walkthrough
     E3 comparison   — Figure 4
     E4 workflow     — Figure 5
     E5 generalize   — Figure 6
     E6/E7 unknown   — §4 Bugs #1 and #2
     E8 ablations    — §3.2 mechanism knobs
     E9 noise        — §5 open question (i)
     E10 composition — §5 composing low-level semantics
     E11 system-scan — whole-system enforcement on assembled releases
     CI              — the vision: gated histories for all 16 cases
     chaos           — fault-injected enforcement (resilience invariants)

   Performance is measured by the seeded benchmark in benchmark/, not
   here.  `bench/main.exe` with no arguments runs everything;
   `--experiment <name>` selects one and `--list` names them.
   `--smoke` shrinks the chaos suite to one system and two seeds (the
   `make check` fast path). *)

let smoke_flag = ref false

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
    ("chaos", run_chaos);
  ]

let () =
  let args =
    List.filter
      (fun a ->
        if a = "--smoke" then smoke_flag := true;
        a <> "--smoke")
      (Array.to_list Sys.argv)
  in
  match args with
  | _ :: "--experiment" :: name :: _ -> (
      match List.assoc_opt name all_experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst all_experiments));
          exit 1)
  | _ :: "--list" :: _ -> List.iter (fun (n, _) -> print_endline n) all_experiments
  | _ -> List.iter (fun (_, f) -> f ()) all_experiments
