(** Chaos suite — the E11 workload under deterministic evidence loss.

    Apart from the oracle, every failure in the pipeline is
    deterministic: a concolic run out of fuel, a solver search past its
    node budget.  The whole-system scan ({!System_scan}) is re-run at
    small fuel and node budgets, and learning is run through an oracle
    client that always raises.  The suite then checks the contract for
    lost evidence:

    - the baseline loses nothing: no degraded or quarantined report;
    - no exception escapes [enforce];
    - every level loses some evidence (a level that degrades nothing
      tests nothing);
    - every level renders identically on a repeat run and at jobs 1, 2
      and 4: lost evidence depends on the budgets, never on the
      schedule or on earlier runs;
    - each level's findings are a subset of the baseline's (lost
      evidence can hide a violation, never invent one);
    - a default-budget re-run after all levels renders byte-identical
      to the baseline (the SMT verdict cache never stores an undecided
      verdict, and the engine keeps nothing else between runs);
    - an oracle that always raises costs the ticket its rules, after
      two retries, and never raises out of learning. *)

type level = {
  lv_name : string;
  lv_fuel : int option;
  lv_node_budget : int option;
}

let levels =
  [
    { lv_name = "fuel 3"; lv_fuel = Some 3; lv_node_budget = None };
    { lv_name = "node budget 1"; lv_fuel = None; lv_node_budget = Some 1 };
    { lv_name = "node budget 3"; lv_fuel = None; lv_node_budget = Some 3 };
    {
      lv_name = "fuel 500, node budget 2";
      lv_fuel = Some 500;
      lv_node_budget = Some 2;
    };
  ]

let baseline_level = { lv_name = "baseline"; lv_fuel = None; lv_node_budget = None }

type observation = {
  ob_findings : (string * int * string list) list;
      (** (system, version, violating rule ids) in scan order *)
  ob_degraded : (string * int * string list) list;
      (** (system, version, degraded rule ids) in scan order *)
  ob_quarantined : string list;  (** sorted rule ids *)
  ob_crash : string option;  (** an exception escaped [enforce] *)
  ob_render : string;  (** full Markdown of every report, in scan order *)
}

type level_result = { lr_level : level; lr_runs : (int * observation) list }

type outage = { out_accepted : int; out_retries : int; out_raised : string option }

type result = {
  res_systems : string list;
  res_baseline : observation;
  res_levels : level_result list;
  res_post : observation;
  res_outage : outage;
}

let versions = [ 1; 2; 3; 5 ]

(* read at load time, before anything lowers it *)
let stock_node_budget = Smt.Solver.default_node_budget ()

let reset_shared_state () =
  Smt.Solver.set_default_node_budget stock_node_budget;
  Smt.Memo.reset ()

(* one full pass of the E11 workload through a fresh engine *)
let run_once ~(level : level) ~(jobs : int)
    (books : (string * Semantics.Rulebook.t) list) : observation =
  reset_shared_state ();
  Option.iter Smt.Solver.set_default_node_budget level.lv_node_budget;
  Fun.protect ~finally:reset_shared_state @@ fun () ->
  let checker = Engine.Checker.default_config in
  let checker =
    { checker with fuel = Option.value level.lv_fuel ~default:checker.fuel }
  in
  let engine =
    Engine.Scheduler.create ~config:{ Engine.Scheduler.jobs; checker } ()
  in
  let findings = ref [] and degraded = ref [] and renders = ref [] in
  let crash = ref None in
  (try
     List.iter
       (fun (system, book) ->
         List.iter
           (fun version ->
             let p = Corpus.Registry.program_of Corpus.Registry.builtin system ~version in
             let reports = Pipeline.enforce_with engine p book in
             findings :=
               (system, version, Engine.Scheduler.finding_ids reports)
               :: !findings;
             degraded :=
               (system, version, Engine.Scheduler.degraded_ids reports)
               :: !degraded;
             renders :=
               Report.render ~title:(Fmt.str "%s v%d" system version) reports
               :: !renders)
           versions)
       books
   with e -> crash := Some (Printexc.to_string e));
  let stats = Engine.Scheduler.stats engine in
  {
    ob_findings = List.rev !findings;
    ob_degraded = List.rev !degraded;
    ob_quarantined = List.sort compare stats.Engine.Stats.quarantined;
    ob_crash = !crash;
    ob_render = String.concat "\n\n" (List.rev !renders);
  }

(* a dead oracle must cost us the rules, not the pipeline *)
let oracle_outage (system : string) : outage =
  let retries = ref 0 in
  Resilience.Events.set_sink (function
    | Resilience.Events.Job_retry _ -> incr retries
    | _ -> ());
  Fun.protect ~finally:Log.install_resilience_sink @@ fun () ->
  let config =
    {
      Pipeline.default_config with
      Pipeline.oracle = (fun _ -> failwith "oracle down");
    }
  in
  let ticket =
    Corpus.Case.original_ticket
      (List.hd (Corpus.Registry.cases_of Corpus.Registry.builtin system))
  in
  let accepted, raised =
    match Pipeline.learn ~config ticket with
    | o -> (List.length o.Pipeline.accepted, None)
    | exception e -> (0, Some (Printexc.to_string e))
  in
  { out_accepted = accepted; out_retries = !retries; out_raised = raised }

let run ?(smoke = false) () : result =
  (* hbase is the one system that loses evidence at every level *)
  let systems = if smoke then [ "hbase" ] else Corpus.Registry.builtin.systems in
  (* learning runs at stock budgets: the chaos target is enforcement *)
  reset_shared_state ();
  let books = List.map (fun s -> (s, System_scan.learn_system_book s)) systems in
  let baseline = run_once ~level:baseline_level ~jobs:1 books in
  let level_results =
    List.map
      (fun level ->
        {
          lr_level = level;
          lr_runs =
            List.map (fun jobs -> (jobs, run_once ~level ~jobs books)) [ 1; 1; 2; 4 ];
        })
      levels
  in
  let post = run_once ~level:baseline_level ~jobs:1 books in
  {
    res_systems = systems;
    res_baseline = baseline;
    res_levels = level_results;
    res_post = post;
    res_outage = oracle_outage (List.hd systems);
  }

let count_ids rows = List.fold_left (fun n (_, _, ids) -> n + List.length ids) 0 rows

let finding_count ob = count_ids ob.ob_findings

let degraded_count ob = count_ids ob.ob_degraded

(* lost evidence can suppress findings, never create them *)
let findings_subset ~(baseline : observation) (ob : observation) : bool =
  List.for_all
    (fun (system, version, ids) ->
      match
        List.find_opt (fun (s, v, _) -> s = system && v = version) baseline.ob_findings
      with
      | Some (_, _, base_ids) -> List.for_all (fun id -> List.mem id base_ids) ids
      | None -> ids = [])
    ob.ob_findings

let invariants (r : result) : (string * bool) list =
  let level_obs = List.concat_map (fun lr -> List.map snd lr.lr_runs) r.res_levels in
  let first lr = snd (List.hd lr.lr_runs) in
  [
    ( "baseline loses no evidence",
      r.res_baseline.ob_crash = None
      && degraded_count r.res_baseline = 0
      && r.res_baseline.ob_quarantined = [] );
    ( "no exception escapes the engine",
      List.for_all (fun ob -> ob.ob_crash = None) (r.res_post :: level_obs) );
    ( "every level loses some evidence",
      List.for_all (fun lr -> degraded_count (first lr) > 0) r.res_levels );
    ( "every level renders identically on a repeat run and at jobs 1, 2 and 4",
      List.for_all
        (fun lr -> List.for_all (fun (_, ob) -> ob = first lr) lr.lr_runs)
        r.res_levels );
    ( "findings at every level are a subset of the baseline's",
      List.for_all (findings_subset ~baseline:r.res_baseline) level_obs );
    ( "default-budget re-run renders byte-identical to the baseline",
      r.res_post.ob_render = r.res_baseline.ob_render );
    ( "a raising oracle costs the rules after two retries, and raises nothing",
      r.res_outage = { out_accepted = 0; out_retries = 2; out_raised = None } );
  ]

let invariants_ok (r : result) : bool = List.for_all snd (invariants r)

let print (r : result) : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let row name ob =
    pf "  %-24s %3d finding(s), %3d degraded report(s), %d quarantined%s" name
      (finding_count ob) (degraded_count ob)
      (List.length ob.ob_quarantined)
      (match ob.ob_crash with None -> "" | Some e -> Fmt.str " CRASH: %s" e)
  in
  pf "chaos — E11 workload under deterministic evidence loss (systems: %s)"
    (String.concat ", " r.res_systems);
  pf "--------------------------------------------------------------------";
  row "baseline" r.res_baseline;
  List.iter
    (fun lr -> row lr.lr_level.lv_name (snd (List.hd lr.lr_runs)))
    r.res_levels;
  row "default-budget re-run" r.res_post;
  let o = r.res_outage in
  pf "  oracle outage: %d rule(s) accepted, %d retrie(s)%s" o.out_accepted
    o.out_retries
    (match o.out_raised with None -> "" | Some e -> Fmt.str " RAISED: %s" e);
  pf "";
  List.iter
    (fun (name, ok) -> pf "  [%s] %s" (if ok then "ok" else "FAIL") name)
    (invariants r);
  Buffer.contents buf
