(* lib/triage: witness-replay triage.  Synthesis soundness as a qcheck
   property (every enumerated valuation satisfies its formula), tier
   codec round-trip, determinism of tier assignment across pool widths
   and repeated runs under a fixed noise seed, and the zero-loss
   guarantee: with the real (no-noise) oracle, no seed-corpus finding
   is ever demoted to Likely-FP. *)

let isolated f () =
  Lisa.Chaos.reset_shared_state ();
  Fun.protect ~finally:Lisa.Chaos.reset_shared_state f

(* ------------------------------------------------------------------ *)
(* Witness synthesis                                                   *)
(* ------------------------------------------------------------------ *)

(* random well-typed guard formulas, the shape real checker conditions
   take: int comparisons (vars and constants), bool and string equality,
   null checks, under conjunction / disjunction / negation.  Keeping each
   variable at a single type matters — the solver rejects type-conflicted
   formulas outright while three-valued eval just answers None for the
   garbage atom, and the properties relate the two. *)
let gen_guard : Smt.Formula.t QCheck.arbitrary =
  let open QCheck in
  let module F = Smt.Formula in
  let int_term =
    Gen.oneof
      [
        Gen.map F.tvar (Gen.oneofl [ "x"; "y"; "Snapshot.ttl" ]);
        Gen.map (fun n -> F.tint (n mod 7)) Gen.small_int;
      ]
  in
  let any_rel = Gen.oneofl F.[ Req; Rneq; Rlt; Rle; Rgt; Rge ] in
  let eq_rel = Gen.oneofl F.[ Req; Rneq ] in
  let leaf =
    Gen.oneof
      [
        Gen.map3 (fun r l rh -> F.atom r l rh) any_rel int_term int_term;
        Gen.map2
          (fun r b -> F.atom r (F.tvar "flag") (F.tbool b))
          eq_rel Gen.bool;
        Gen.map2
          (fun r s -> F.atom r (F.tvar "name") (F.tstr s))
          eq_rel
          (Gen.oneofl [ "a"; "b" ]);
        Gen.map (fun r -> F.atom r (F.tvar "Snapshot") F.tnull) eq_rel;
      ]
  in
  let rec go n =
    if n <= 0 then leaf
    else
      Gen.oneof
        [
          leaf;
          Gen.map F.negate (go (n - 1));
          Gen.map2 (fun a b -> F.conj [ a; b ]) (go (n / 2)) (go (n / 2));
          Gen.map2 (fun a b -> F.disj [ a; b ]) (go (n / 2)) (go (n / 2));
        ]
  in
  make ~print:F.to_string (Gen.sized (fun n -> go (min n 5)))

let prop_synthesis_sound =
  QCheck.Test.make ~count:300
    ~name:"every synthesized valuation satisfies its formula"
    gen_guard
    (fun f ->
      let valuations, _complete =
        Triage.synthesize ~max_nodes:5_000 ~max_attempts:6 f
      in
      (* synthesize enumerates over the simplified formula (tautologous
         sub-terms may drop their variables entirely), so that is the
         form a witness must satisfy *)
      let simplified = Smt.Formula.simplify f in
      List.for_all
        (fun v -> Smt.Formula.eval v simplified = Some true)
        valuations)

let prop_unsat_means_no_witness =
  QCheck.Test.make ~count:300
    ~name:"solver-unsat formulas never synthesize a witness"
    gen_guard
    (fun f ->
      match Smt.Solver.solve f with
      | Smt.Solver.Unsat ->
          let valuations, _ =
            Triage.synthesize ~max_nodes:20_000 ~max_attempts:8 f
          in
          valuations = []
      | _ -> true)

let test_tier_codec () =
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Triage.tier_to_string t ^ " round-trips")
        true
        (Triage.tier_of_string (Triage.tier_to_string t) = Some t))
    [ Triage.Witnessed; Triage.Consistent; Triage.Likely_fp ];
  Alcotest.(check bool) "unknown tier rejected" true
    (Triage.tier_of_string "definitely-real" = None)

let test_synthesize_finds_known_witness () =
  let module F = Smt.Formula in
  (* the HBASE-27671 shape: !(ttl <= 0 || now < expiry) /\ snap != null *)
  let f =
    F.conj
      [
        F.negate
          (F.disj
             [
               F.atom F.Rle (F.tvar "Snapshot.ttl") (F.tint 0);
               F.atom F.Rlt (F.tvar "nowTs") (F.tvar "Snapshot.expiryTs");
             ]);
        F.atom F.Rneq (F.tvar "Snapshot") F.tnull;
      ]
  in
  let valuations, complete =
    Triage.synthesize ~max_nodes:20_000 ~max_attempts:8 f
  in
  Alcotest.(check bool) "found at least one witness" true (valuations <> []);
  Alcotest.(check bool) "enumeration completed in budget" true complete;
  List.iter
    (fun v ->
      Alcotest.(check bool)
        "witness satisfies the violation formula" true
        (Smt.Formula.eval v f = Some true))
    valuations

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

(* a noisy book (epsilon 1.0, fixed seed, cross-checking off so the
   corrupted rules actually reach enforcement) against hbase v2: tier
   assignment must be identical run-to-run and jobs=1 vs jobs=4 *)
let noisy_tiers ~jobs () =
  let config =
    {
      Lisa.Pipeline.default_config with
      Lisa.Pipeline.noise = { Oracle.Inference.epsilon = 1.0; seed = 7 };
      cross_check = false;
    }
  in
  let book = Lisa.System_scan.learn_system_book ~config "hbase" in
  let p = Corpus.Registry.program_of Corpus.Registry.builtin "hbase" ~version:2 in
  let engine =
    Engine.Scheduler.create
      ~config:{ Engine.Scheduler.default_config with Engine.Scheduler.jobs }
      ()
  in
  let reports =
    Lisa.Pipeline.enforce_with engine p book
    |> List.filter Engine.Checker.has_violations
  in
  Triage.triage_reports p reports
  |> List.map (fun (t : Triage.triaged) ->
         ( t.Triage.t_report.Engine.Checker.rep_rule.Semantics.Rule.rule_id,
           List.map
             (fun (f : Triage.finding) ->
               ( f.Triage.f_rule_id,
                 f.Triage.f_method,
                 f.Triage.f_target_sid,
                 Triage.tier_to_string f.Triage.f_tier,
                 f.Triage.f_reason ))
             t.Triage.t_findings ))

let test_triage_deterministic () =
  let first = noisy_tiers ~jobs:1 () in
  Alcotest.(check bool) "noisy run produced findings" true (first <> []);
  Alcotest.(check bool) "repeated run identical" true
    (noisy_tiers ~jobs:1 () = first);
  Alcotest.(check bool) "jobs=4 identical to jobs=1" true
    (noisy_tiers ~jobs:4 () = first)

(* ------------------------------------------------------------------ *)
(* Zero-loss                                                           *)
(* ------------------------------------------------------------------ *)

(* with the real oracle (no noise), every finding across the whole
   E11 seed corpus must keep a Witnessed or Consistent tier: triage
   never demotes a true positive to Likely-FP *)
let test_no_noise_zero_loss () =
  let results, _ =
    Lisa.System_scan.run_engine ~triage:Triage.default_config ()
  in
  let rows =
    List.concat_map
      (fun (r : Lisa.System_scan.system_result) ->
        List.concat_map
          (fun (vr : Lisa.System_scan.version_row) ->
            List.map
              (fun (id, t) -> (r.Lisa.System_scan.sys_name, id, t))
              vr.Lisa.System_scan.vr_tiers)
          r.Lisa.System_scan.sys_rows)
      results
  in
  Alcotest.(check bool) "corpus findings were tiered" true (rows <> []);
  List.iter
    (fun (sys, id, t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s not demoted (%s)" sys id t)
        true
        (t = "witnessed" || t = "consistent"))
    rows

(* ------------------------------------------------------------------ *)
(* Whole-scan gates                                                    *)
(* ------------------------------------------------------------------ *)

let scan ?(noise = Oracle.Inference.no_noise) ?(cross_check = true) ?triage ()
    =
  Lisa.Chaos.reset_shared_state ();
  let config =
    { Lisa.Pipeline.default_config with Lisa.Pipeline.noise; cross_check }
  in
  fst (Lisa.System_scan.run_engine ~config ?triage ())

(* a disabled triage config is invisible: the scan prints byte-identically
   to no triage at all and carries no tier markers *)
let test_disabled_identity () =
  let plain = Lisa.System_scan.print (scan ()) in
  let disabled =
    Lisa.System_scan.print
      (scan ~triage:{ Triage.default_config with Triage.enabled = false } ())
  in
  Alcotest.(check string) "scan output, triage disabled vs absent" plain
    disabled;
  Alcotest.(check bool) "no tier markers" false
    (Astring_contains.contains plain "[triage:")

(* under a fully hallucinating oracle (epsilon 1.0, seed 7, cross-checking
   off so corrupted rules reach enforcement) the findings of flipped and
   ghost-target rules are the injected false positives: >= 70% of them
   rank Likely-FP, and no genuine finding does.  The noise marker lands
   in the rule id before generalization (e.g. HBASE-22380.g29.flip.gen);
   weakened rules stay genuine. *)
let test_injected_fp_demoted () =
  let rows =
    scan
      ~noise:{ Oracle.Inference.epsilon = 1.0; seed = 7 }
      ~cross_check:false ~triage:Triage.default_config ()
    |> List.concat_map (fun (r : Lisa.System_scan.system_result) ->
           List.concat_map
             (fun (vr : Lisa.System_scan.version_row) ->
               vr.Lisa.System_scan.vr_tiers)
             r.Lisa.System_scan.sys_rows)
  in
  let injected (id, _) =
    Astring_contains.contains id ".flip."
    || Astring_contains.contains id ".ghost."
  in
  let likely_fp (_, t) = t = "likely-fp" in
  let inj, genuine = List.partition injected rows in
  let demoted = List.length (List.filter likely_fp inj) in
  Alcotest.(check bool) "noise injected false positives" true (inj <> []);
  Alcotest.(check bool)
    (Printf.sprintf ">= 70%% of injected FPs demoted (%d of %d)" demoted
       (List.length inj))
    true
    (10 * demoted >= 7 * List.length inj);
  Alcotest.(check int) "no genuine finding demoted" 0
    (List.length (List.filter likely_fp genuine))

let suite =
  [
    ( "triage.synthesis",
      [
        QCheck_alcotest.to_alcotest prop_synthesis_sound;
        QCheck_alcotest.to_alcotest prop_unsat_means_no_witness;
        Alcotest.test_case "tier codec round-trips" `Quick test_tier_codec;
        Alcotest.test_case "known witness synthesized" `Quick
          test_synthesize_finds_known_witness;
      ] );
    ( "triage.verdicts",
      [
        Alcotest.test_case "deterministic: repeat + jobs=1 vs jobs=4" `Slow
          (isolated test_triage_deterministic);
        Alcotest.test_case "no-noise: no corpus finding demoted" `Slow
          (isolated test_no_noise_zero_loss);
        Alcotest.test_case "disabled triage: scan output identical" `Slow
          (isolated test_disabled_identity);
        Alcotest.test_case "noise 1.0: injected FPs demoted" `Slow
          (isolated test_injected_fp_demoted);
      ] );
  ]
