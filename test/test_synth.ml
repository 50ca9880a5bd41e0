(* Generated-corpus properties: every synthetic case over random seeds
   passes Case.validate and its planted violation is found at the
   planted stage; Registry.builtin keeps its pinned study figures; synth
   registries are deterministic and scale-independent. *)

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* qcheck: random seeds -> validate green + planted bug found          *)
(* ------------------------------------------------------------------ *)

let arb_seed_case =
  QCheck.make
    ~print:(fun (seed, k) -> Printf.sprintf "seed=%d case=%d" seed k)
    QCheck.Gen.(pair (int_bound 0xFFFF) (int_bound 15))

let prop_generated_case_valid =
  QCheck.Test.make ~name:"synth: generated cases validate green" ~count:12
    arb_seed_case (fun (seed, k) ->
      match Corpus.Synth.validate_failure (Corpus.Synth.case_at ~seed k) with
      | None -> true
      | Some e -> QCheck.Test.fail_reportf "seed=%d case=%d: %s" seed k e)

let prop_planted_bug_found =
  QCheck.Test.make ~name:"synth: planted violation found at planted stage"
    ~count:8 arb_seed_case (fun (seed, k) ->
      match Lisa.Synth_check.full (Corpus.Synth.case_at ~seed k) with
      | None -> true
      | Some e -> QCheck.Test.fail_reportf "seed=%d case=%d: %s" seed k e)

(* ------------------------------------------------------------------ *)
(* Determinism and scale-independence                                  *)
(* ------------------------------------------------------------------ *)

(* deterministic complement to the sampled properties: every family,
   both checks, fixed seeds *)
let test_every_family_checks () =
  List.iter
    (fun seed ->
      List.iteri
        (fun k fam ->
          let c = Corpus.Synth.case_at ~seed k in
          check (Printf.sprintf "family order %d" k) true
            (Filename.check_suffix c.Corpus.Case.case_id
               (Corpus.Synth.family_name fam));
          match Lisa.Synth_check.full c with
          | None -> ()
          | Some e ->
              Alcotest.failf "seed=%d %s (%s): %s" seed c.Corpus.Case.case_id
                (Corpus.Synth.family_name fam) e)
        Corpus.Synth.families)
    [ 1; 42 ]

let test_registry_deterministic () =
  let r1 = Corpus.Synth.registry ~seed:7 ~scale:1 () in
  let r2 = Corpus.Synth.registry ~seed:7 ~scale:1 () in
  List.iter2
    (fun s1 s2 ->
      check_str "system name" s1 s2;
      List.iter
        (fun v ->
          check_str
            (Printf.sprintf "%s v%d source" s1 v)
            (Corpus.Registry.source_of r1 s1 ~version:v)
            (Corpus.Registry.source_of r2 s2 ~version:v))
        r1.Corpus.Registry.scan_versions)
    r1.Corpus.Registry.systems r2.Corpus.Registry.systems;
  let r3 = Corpus.Synth.registry ~seed:8 ~scale:1 () in
  check "different seed differs" true
    (Corpus.Registry.source_of r1
       (List.hd r1.Corpus.Registry.systems)
       ~version:2
    <> Corpus.Registry.source_of r3
         (List.hd r3.Corpus.Registry.systems)
         ~version:2
    || List.hd r1.Corpus.Registry.systems
       <> List.hd r3.Corpus.Registry.systems)

let test_case_scale_independent () =
  (* case k is byte-identical whether reached via case_at or a registry *)
  let r = Corpus.Synth.registry ~seed:11 ~scale:2 () in
  List.iteri
    (fun k (c : Corpus.Case.t) ->
      let c' = Corpus.Synth.case_at ~seed:11 k in
      check_str "case id" c.Corpus.Case.case_id c'.Corpus.Case.case_id;
      for stage = 0 to c.Corpus.Case.n_stages - 1 do
        check_str
          (Printf.sprintf "%s stage %d" c.Corpus.Case.case_id stage)
          (c.Corpus.Case.source stage) (c'.Corpus.Case.source stage)
      done)
    r.Corpus.Registry.cases

let test_minimizer_passes_on_green () =
  check "green case yields no repro" true
    (Corpus.Synth.minimize ~seed:3 5 = None)

let test_minimizer_shrinks_failure () =
  (* an artificial predicate that "fails" whenever any knob is on: the
     minimizer must descend to min_knobs *)
  let fails (c : Corpus.Case.t) =
    ignore c;
    Some "always"
  in
  match Corpus.Synth.minimize ~fails ~seed:3 5 with
  | None -> Alcotest.fail "expected a repro"
  | Some r ->
      check "shrunk to min knobs" true (r.Corpus.Synth.rp_knobs = Corpus.Synth.min_knobs);
      check "repro command" true
        (r |> Corpus.Synth.repro_command
        = "lisa corpus synth --seed 3 --case 5")

let isolated f () =
  Lisa.Chaos.reset_shared_state ();
  Fun.protect ~finally:Lisa.Chaos.reset_shared_state f

(* pool width is invisible in the synthetic scan's printed output *)
let test_synth_scan_jobs_invariant () =
  let registry = Corpus.Synth.registry ~seed:42 ~scale:1 () in
  let scan jobs =
    Lisa.Chaos.reset_shared_state ();
    let engine_config =
      { Engine.Scheduler.default_config with Engine.Scheduler.jobs }
    in
    Lisa.System_scan.print
      (fst (Lisa.System_scan.run_engine ~engine_config ~registry ()))
  in
  check_str "scan output, jobs=1 vs jobs=2" (scan 1) (scan 2)

(* the rendered 1x seed-1 scan, as printed before the engine lost its
   report cache and incremental pre-pass: the stateless engine must
   reproduce it byte for byte *)
let test_synth_scan_digest () =
  let registry = Corpus.Synth.registry ~seed:1 ~scale:1 () in
  let out = Lisa.System_scan.print (fst (Lisa.System_scan.run_engine ~registry ())) in
  check_str "System_scan.print digest" "57aba2c5bce51a50da091ce0b665e888"
    (Digest.to_hex (Digest.string out))

(* the generator reports itself to the tracer: one corpus.synth span per
   registry built *)
let test_synth_span_recorded () =
  let module T = Telemetry.Trace in
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    (fun () ->
      ignore (Corpus.Synth.registry ~seed:42 ~scale:1 ());
      check "corpus.synth span" true
        (List.exists (fun sp -> sp.T.sp_name = "corpus.synth") (T.spans ())))

(* ------------------------------------------------------------------ *)
(* Builtin pins                                                        *)
(* ------------------------------------------------------------------ *)

(* Golden pins of the pre-refactor module output (captured at the seed
   of this refactor): study stats and a commit-history line. *)
let test_builtin_golden_pins () =
  let b = Corpus.Registry.builtin in
  check_int "16 cases" 16 (Corpus.Registry.case_count b);
  check_int "34 bugs" 34 (Corpus.Registry.bug_count b);
  check_int "max version 5" 5 b.max_version;
  check_int "ephemeral total 46" 46 (Corpus.Registry.ephemeral_total b);
  check_int "avg test files" 1_309 b.meta.m_avg_test_files;
  check_int "gcp changes/day" 16_000 b.meta.m_changes_per_day_gcp;
  check "scan versions" true (b.scan_versions = [ 1; 2; 3; 5 ]);
  match Corpus.Registry.history_of b "zookeeper" with
  | (0, first) :: _ -> check_str "v0 message" "initial release" first
  | _ -> Alcotest.fail "history must start at v0"

let suite =
  [
    ( "synth.qcheck",
      List.map QCheck_alcotest.to_alcotest
        [ prop_generated_case_valid; prop_planted_bug_found ] );
    ( "synth.registry",
      [
        Alcotest.test_case "all four families check" `Quick
          test_every_family_checks;
        Alcotest.test_case "same seed byte-identical" `Quick
          test_registry_deterministic;
        Alcotest.test_case "case scale-independent" `Quick
          test_case_scale_independent;
        Alcotest.test_case "minimizer passes on green" `Quick
          test_minimizer_passes_on_green;
        Alcotest.test_case "minimizer shrinks to min knobs" `Quick
          test_minimizer_shrinks_failure;
        Alcotest.test_case "builtin golden pins" `Quick
          test_builtin_golden_pins;
        Alcotest.test_case "1x seed-1 scan digest pinned" `Slow
          (isolated test_synth_scan_digest);
        Alcotest.test_case "1x scan identical, jobs=1 vs jobs=2" `Slow
          (isolated test_synth_scan_jobs_invariant);
        Alcotest.test_case "registry records a corpus.synth span" `Slow
          (isolated test_synth_span_recorded);
      ] );
  ]
