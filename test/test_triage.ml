(* lib/triage: witness-replay triage.  The witness as qcheck properties
   (a Sat model yields a valuation satisfying its formula; a literal set
   the theory rejects yields none, and a returned valuation satisfies
   every literal), tier codec round-trip, determinism of tier
   assignment across pool widths and repeated runs under a fixed noise
   seed, the zero-loss guarantee (with the real, no-noise oracle no
   seed-corpus finding is ever demoted to Likely-FP), and the pinned
   tiers of the replayed findings. *)

let isolated f () =
  Lisa.Chaos.reset_shared_state ();
  Fun.protect ~finally:Lisa.Chaos.reset_shared_state f

(* ------------------------------------------------------------------ *)
(* The witness                                                         *)
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

let model_of f =
  match Smt.Solver.solve f with Smt.Solver.Sat m -> Some m | _ -> None

let prop_sat_model_witnessed =
  QCheck.Test.make ~count:300
    ~name:"a Sat model yields a valuation satisfying its formula"
    gen_guard
    (fun f ->
      match model_of f with
      | None -> true
      | Some m -> (
          (* the solver decides the simplified formula (tautologous
             sub-terms may drop their variables entirely), so that is
             the form a witness must satisfy *)
          match Triage.witness f m with
          | Some v -> Smt.Formula.eval v (Smt.Formula.simplify f) = Some true
          | None -> false))

(* literal sets over a guard's atoms, signs drawn at random: one the
   theory rejects gets no valuation, and a valuation it returns makes
   every literal hold (it is not re-checked before [Triage.witness]
   evaluates the whole formula) *)
let prop_valuation =
  QCheck.Test.make ~count:300
    ~name:"valuation: none if inconsistent, else every literal holds"
    QCheck.(pair gen_guard (list bool))
    (fun (f, signs) ->
      let atoms = Smt.Formula.atoms f in
      let sign i = match List.nth_opt signs i with Some b -> b | None -> i mod 2 = 0 in
      let holds v (a : Smt.Formula.atom) b =
        Smt.Formula.eval v (Smt.Formula.atom a.Smt.Formula.rel a.lhs a.rhs) = Some b
      in
      List.for_all
        (fun lits ->
          let theory_lits = List.map (fun (a, b) -> Smt.Theory.lit b a) lits in
          match Smt.Theory.valuation theory_lits with
          | None -> true
          | Some v ->
              Smt.Theory.consistent theory_lits
              && List.for_all (fun (a, b) -> holds v a b) lits)
        [
          List.map (fun a -> (a, true)) atoms;
          List.map (fun a -> (a, false)) atoms;
          List.mapi (fun i a -> (a, sign i)) atoms;
        ])

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

let test_known_witness () =
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
  match Option.bind (model_of f) (Triage.witness f) with
  | None -> Alcotest.fail "no witness for a satisfiable violation formula"
  | Some v ->
      Alcotest.(check bool) "witness satisfies the violation formula" true
        (Smt.Formula.eval v f = Some true);
      Alcotest.(check bool) "ttl is positive" true
        (match List.assoc_opt "Snapshot.ttl" v with
        | Some (F.V_int n) -> n > 0
        | _ -> false)

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
      Lisa.Pipeline.oracle =
        (fun t ->
          Oracle.Inference.infer ~noise:{ Oracle.Inference.epsilon = 1.0; seed = 7 } t);
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
    {
      Lisa.Pipeline.default_config with
      Lisa.Pipeline.oracle = (fun t -> Oracle.Inference.infer ~noise t);
      cross_check;
    }
  in
  fst (Lisa.System_scan.run_engine ~config ?triage ())

(* a disabled triage config is invisible: the scan prints byte-identically
   to no triage at all and carries no tier markers *)
let test_disabled_identity () =
  let plain = Lisa.System_scan.print (scan ()) in
  let disabled =
    Lisa.System_scan.print
      (scan ~triage:{ Triage.enabled = false } ())
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

(* ------------------------------------------------------------------ *)
(* Replay through the driving test                                     *)
(* ------------------------------------------------------------------ *)

(* every finding of a registry's scan, triaged: (system, version,
   finding) in scan order *)
let scan_findings registry =
  Lisa.Chaos.reset_shared_state ();
  let engine = Engine.Scheduler.create () in
  List.concat_map
    (fun system ->
      let book = Lisa.System_scan.learn_system_book ~registry system in
      List.concat_map
        (fun version ->
          let p = Corpus.Registry.program_of registry system ~version in
          Lisa.Pipeline.enforce_with engine p book
          |> List.filter Engine.Checker.has_violations
          |> Triage.triage_reports p
          |> List.concat_map (fun (t : Triage.triaged) ->
                 List.map (fun f -> (system, version, f)) t.Triage.t_findings))
        registry.Corpus.Registry.scan_versions)
    registry.Corpus.Registry.systems

(* the guard findings a cold call of the target method could not
   reproduce, each reached by its driving test: replaying that test
   witnesses them *)
let test_replayed_guards_witnessed () =
  let tiers =
    scan_findings Corpus.Registry.builtin
    |> List.map (fun (_, v, (f : Triage.finding)) ->
           ( (f.Triage.f_rule_id, v),
             (f.Triage.f_entry = "", Triage.tier_to_string f.Triage.f_tier) ))
  in
  List.iter
    (fun (rule, v) ->
      let got =
        List.filter_map (fun (k, (_, t)) -> if k = (rule, v) then Some t else None) tiers
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s at v%d has findings" rule v)
        true (got <> []);
      List.iter
        (fun t -> Alcotest.(check string) (Printf.sprintf "%s at v%d" rule v) "witnessed" t)
        got)
    [
      ("ZK-1208.g41.gen", 2);
      ("ZK-2471.g5.gen", 2);
      ("HDFS-13924.g22.gen", 2);
      ("HDFS-13924.g22.gen", 5);
      ("HDFS-15182.g22.gen", 2);
      ("CASSANDRA-12653.g29.gen", 2);
    ];
  (* every builtin state-guard finding is witnessed; only the static
     lock findings stay consistent *)
  List.iter
    (fun ((rule, v), (lock, t)) ->
      Alcotest.(check string)
        (Printf.sprintf "%s at v%d" rule v)
        (if lock then "consistent" else "witnessed")
        t)
    tiers

(* the 1x seed-1 synth corpus: 12 of its 20 findings witnessed (4 before
   the test replay); the other 8 are static lock findings *)
let test_synth_1x_witnessed () =
  let fs = scan_findings (Corpus.Synth.registry ~seed:1 ~scale:1 ()) in
  let tier t = List.filter (fun (_, _, (f : Triage.finding)) -> f.Triage.f_tier = t) fs in
  Alcotest.(check int) "findings" 20 (List.length fs);
  Alcotest.(check int) "witnessed" 12 (List.length (tier Triage.Witnessed));
  Alcotest.(check int) "consistent" 8 (List.length (tier Triage.Consistent));
  List.iter
    (fun (_, _, (f : Triage.finding)) ->
      Alcotest.(check string) (f.Triage.f_rule_id ^ " is a static lock finding")
        "static lock-scope finding; not dynamically observed" f.Triage.f_reason)
    (tier Triage.Consistent)

(* The replay judges the program's own state at the target: the model
   only seeds the inputs when the finding's method is entered.  [reopen]
   overwrites the guarded field before the target, so no starting value
   reaches it and the finding must stay Consistent; [save] leaves the
   field alone, so the seeded value reaches the target and the finding
   is Witnessed. *)
let test_overwritten_input_not_witnessed () =
  let p =
    Minilang.Parser.program
      {|
class Store {
  field closed: bool = false;
  field writes: int = 0;
  method reopen(x: int) {
    this.closed = false;
    this.writes = this.writes + 1;
    writeRecord(x);
  }
  method save(x: int) {
    this.writes = this.writes + 1;
    writeRecord(x);
  }
}
method test_reopen() {
  var s: Store = new Store();
  s.reopen(1);
}
method test_save() {
  var s: Store = new Store();
  s.save(1);
}
|}
  in
  let finding in_method =
    let rule =
      Semantics.Rule.make ~rule_id:in_method ~description:"d" ~high_level:"h"
        ~origin:"o"
        (Semantics.Rule.State_guard
           {
             target =
               Semantics.Rule.Call_to
                 { callee = "writeRecord"; in_method = Some in_method };
             condition =
               Smt.Formula.eq (Smt.Formula.tvar "Store.closed")
                 (Smt.Formula.tbool false);
           })
    in
    match
      (Triage.triage_report p (Engine.Checker.check_rule p rule)).Triage.t_findings
    with
    | [ f ] -> f
    | fs -> Alcotest.failf "%s: %d findings, expected 1" in_method (List.length fs)
  in
  let reopen = finding "Store.reopen" and save = finding "Store.save" in
  Alcotest.(check string) "overwritten before the target" "consistent"
    (Triage.tier_to_string reopen.Triage.f_tier);
  Alcotest.(check string) "why"
    "model exists; replay inconclusive: checker holds at every target arrival"
    reopen.Triage.f_reason;
  Alcotest.(check string) "seeded value reaches the target" "witnessed"
    (Triage.tier_to_string save.Triage.f_tier)

let suite =
  [
    ( "triage.synthesis",
      [
        QCheck_alcotest.to_alcotest prop_sat_model_witnessed;
        QCheck_alcotest.to_alcotest prop_valuation;
        Alcotest.test_case "tier codec round-trips" `Quick test_tier_codec;
        Alcotest.test_case "known witness synthesized" `Quick
          test_known_witness;
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
    ( "triage.replay",
      [
        Alcotest.test_case "builtin guard findings witnessed" `Slow
          (isolated test_replayed_guards_witnessed);
        Alcotest.test_case "1x synth: 12 of 20 witnessed" `Slow
          (isolated test_synth_1x_witnessed);
        Alcotest.test_case "an overwritten input is not witnessed" `Quick
          (isolated test_overwritten_input_not_witnessed);
      ] );
  ]
