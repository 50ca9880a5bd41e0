(** Experiment E11 (ours) — whole-system enforcement at scale.

    Per-case enforcement (E2/E3) checks a rule against the feature module
    it came from.  Production CI runs the *accumulated* rulebook against
    the *whole* code base; this experiment does exactly that on the
    assembled releases: one rulebook per system, learned from every
    original incident, enforced against releases v1 (all first fixes in),
    v2 (everything regressed), v3 (regressions fixed) and v5 ("latest",
    carrying the two §4 unknown bugs).

    The 4-system × 4-version sweep is one engine run: a single
    {!Engine.Scheduler} serves all sixteen enforcements and sums their
    statistics.  Every enforcement prepares and executes every rule;
    only repeated path conditions are shared, through the SMT verdict
    cache.

    Shape to expect: v1 clean, one finding per case at v2, v3 clean again,
    and exactly the HBASE-29296 / HDFS-17768 paths at v5 — with zero
    cross-feature false positives, which is only true because rule
    generalization refuses to widen syntactic (builtin-anchored)
    targets. *)

type version_row = {
  vr_version : int;
  vr_rules : int;
  vr_violating_rules : string list;  (** rule ids with findings *)
  vr_traces : int;
  vr_branches_total : int;
  vr_branches_recorded : int;
  vr_degraded : string list;  (** rule ids with degraded (lossy) reports *)
  vr_tiers : (string * string) list;
      (** witness-replay tier per violating rule id (e.g. ["witnessed"]);
          empty unless the scan ran with triage enabled *)
}

type system_result = {
  sys_name : string;
  sys_rows : version_row list;
}

let learn_system_book ?(config = Pipeline.default_config)
    ?(registry = Corpus.Registry.builtin) (system : string) :
    Semantics.Rulebook.t =
  let tickets =
    List.map Corpus.Case.original_ticket (Corpus.Registry.cases_of registry system)
  in
  let book, _ = Pipeline.learn_all ~config ~system tickets in
  book

let row_of_reports ?(triage : Triage.config option) ~(program : Minilang.Ast.program)
    (book : Semantics.Rulebook.t) (version : int)
    (reports : Engine.Checker.rule_report list) : version_row =
  let tiers =
    match triage with
    | Some tcfg ->
        let violating = List.filter Engine.Checker.has_violations reports in
        Triage.rule_tiers (Triage.triage_reports ~config:tcfg program violating)
    | None -> []
  in
  {
    vr_version = version;
    vr_rules = Semantics.Rulebook.size book;
    vr_violating_rules =
      List.filter_map
        (fun (r : Engine.Checker.rule_report) ->
          if Engine.Checker.has_violations r then
            Some r.Engine.Checker.rep_rule.Semantics.Rule.rule_id
          else None)
        reports;
    vr_traces =
      List.fold_left
        (fun n (r : Engine.Checker.rule_report) -> n + List.length r.rep_traces)
        0 reports;
    vr_branches_total =
      List.fold_left (fun n (r : Engine.Checker.rule_report) -> n + r.rep_branches_total) 0 reports;
    vr_branches_recorded =
      List.fold_left
        (fun n (r : Engine.Checker.rule_report) -> n + r.Engine.Checker.rep_branches_recorded)
        0 reports;
    vr_degraded = Engine.Scheduler.degraded_ids reports;
    vr_tiers = tiers;
  }

(** The whole scan as one engine run.  Returns per-system rows plus the
    engine's accumulated statistics.  [engine_config] defaults to the
    default engine running [config]'s checker; an explicit one is used
    as given, its checker included.  [triage] additionally runs
    witness-replay triage over each version's findings and fills
    [vr_tiers] (absent by default, so the plain scan output is
    byte-identical to the pre-triage engine). *)
let run_engine ?(config = Pipeline.default_config)
    ?engine_config
    ?(registry = Corpus.Registry.builtin) ?(triage : Triage.config option) () :
    system_result list * Engine.Stats.t =
  let engine_config =
    Option.value engine_config
      ~default:
        {
          Engine.Scheduler.default_config with
          Engine.Scheduler.checker = config.Pipeline.checker;
        }
  in
  let engine = Engine.Scheduler.create ~config:engine_config () in
  let results =
    List.map
      (fun system ->
        let book = learn_system_book ~config ~registry system in
        {
          sys_name = system;
          sys_rows =
            List.map
              (fun version ->
                let p = Corpus.Registry.program_of registry system ~version in
                row_of_reports ?triage ~program:p book version
                  (Pipeline.enforce_with engine p book))
              registry.Corpus.Registry.scan_versions;
        })
      registry.Corpus.Registry.systems
  in
  (results, Engine.Scheduler.stats engine)

let run ?(config = Pipeline.default_config)
    ?(registry = Corpus.Registry.builtin) () : system_result list =
  fst (run_engine ~config ~registry ())

let print (results : system_result list) : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  pf "E11 — whole-system enforcement on the assembled releases";
  pf "----------------------------------------------------------";
  List.iter
    (fun r ->
      pf "%s:" r.sys_name;
      List.iter
        (fun vr ->
          pf
            "  v%d: %d rules, %d traces judged, branches %d/%d recorded, findings: %s%s"
            vr.vr_version vr.vr_rules vr.vr_traces vr.vr_branches_recorded
            vr.vr_branches_total
            (match vr.vr_violating_rules with
            | [] -> "none"
            | ids -> String.concat ", " ids)
            (* only non-empty when a run lost evidence: the healthy scan output
               stays byte-identical to the pre-resilience engine *)
            (* only non-empty when triage ran: the plain scan stays
               byte-identical to the pre-triage engine *)
            ((match vr.vr_degraded with
             | [] -> ""
             | ids -> Fmt.str " [degraded: %s]" (String.concat ", " ids))
            ^
            match vr.vr_tiers with
            | [] -> ""
            | tiers ->
                Fmt.str " [triage: %s]"
                  (String.concat ", "
                     (List.map (fun (id, t) -> id ^ "=" ^ t) tiers))))
        r.sys_rows)
    results;
  pf "";
  pf "expected shape: v1 and v3 clean; one finding per case at v2; only the";
  pf "two Section-4 unknown bugs at v5; no cross-feature false positives.";
  Buffer.contents buf

let print_with_stats ((results, stats) : system_result list * Engine.Stats.t) :
    string =
  print results ^ "\n" ^ Engine.Stats.to_string stats ^ "\n"
