(** Chaos suite — the E11 workload under seeded fault plans.

    The whole-system scan ({!System_scan}) is re-run with the
    {!Resilience} injector armed: every solver call, concolic run,
    oracle inference, and cache lookup may crash, exhaust its budget, or
    fail transiently, according to a plan that is a pure function of
    (seed, injection point, call index).  The suite then checks the
    engine's fault-tolerance contract:

    - the engine {e never} lets an injected fault escape [enforce]
      (failed jobs retry, then quarantine behind placeholder reports);
    - two runs of the same seed produce identical findings, degraded
      sets, quarantine sets, retry counts, and fault counts;
    - chaos findings are a subset of the no-fault baseline (faults can
      only lose evidence, never invent violations);
    - after the chaos runs, a no-fault re-run renders byte-for-byte the
      same Markdown as the baseline (no state poisoning: degraded
      reports stay out of the report cache and incremental memory);
    - a total oracle outage degrades learning to zero accepted rules
      instead of raising;
    - a [jobs = 4] leg survives the same plan (worker domains included).

    Everything is deterministic: backoff is set to zero, the breaker
    cooldown counts calls, and the shared caches are reset between
    runs. *)

type observation = {
  ob_findings : (string * int * string list) list;
      (** (system, version, violating rule ids) in scan order *)
  ob_degraded : (string * int * string list) list;
      (** (system, version, degraded rule ids) in scan order *)
  ob_quarantined : string list;  (** sorted rule ids *)
  ob_retries : int;
  ob_faults : int;  (** faults injected during this run *)
  ob_crash : string option;  (** an exception escaped [enforce] *)
}

type seed_result = {
  sr_seed : int;
  sr_first : observation;
  sr_second : observation;  (** same seed, fresh state: must equal first *)
}

type result = {
  res_systems : string list;
  res_rate : float;
  res_baseline : observation;
  res_baseline_render : string;  (** full Markdown of the no-fault scan *)
  res_seeds : seed_result list;
  res_parallel : observation;  (** jobs = 4 leg under the first seed *)
  res_post_render : string;  (** no-fault re-run after all the chaos *)
  res_oracle_outage_ok : bool;
}

let versions = [ 1; 2; 3; 5 ]

(* every run starts from the same shared-state origin: empty SMT verdict
   cache, closed breakers, rewound injection counters *)
let reset_shared_state () =
  Resilience.Injector.disarm ();
  Resilience.Injector.reset ();
  Resilience.Breaker.reset_all ();
  Smt.Memo.reset ()

(* one full pass of the E11 workload through a fresh engine *)
let run_once ?plan ?(jobs = 1) (books : (string * Semantics.Rulebook.t) list) :
    observation * string =
  reset_shared_state ();
  (match plan with Some pl -> Resilience.Injector.arm pl | None -> ());
  Fun.protect ~finally:Resilience.Injector.disarm @@ fun () ->
  let faults0 = Resilience.Injector.injected_count () in
  let engine =
    Engine.Scheduler.create
      ~config:
        {
          Engine.Scheduler.default_config with
          Engine.Scheduler.jobs;
          retry_backoff_ms = 0;
        }
      ()
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
  ( {
      ob_findings = List.rev !findings;
      ob_degraded = List.rev !degraded;
      ob_quarantined = List.sort compare stats.Engine.Stats.quarantined;
      ob_retries = stats.Engine.Stats.retries;
      ob_faults = Resilience.Injector.injected_count () - faults0;
      ob_crash = !crash;
    },
    String.concat "\n\n" (List.rev !renders) )

(* a dead oracle must cost us the rules, not the pipeline *)
let oracle_outage_ok (system : string) : bool =
  reset_shared_state ();
  Resilience.Injector.arm
    (Resilience.Plan.make
       ~points:[ Resilience.Fault.Oracle ]
       ~kinds:[ Resilience.Fault.Crash ] ~seed:1 ~rate:1.0 ());
  Fun.protect ~finally:reset_shared_state @@ fun () ->
  match Corpus.Registry.cases_of Corpus.Registry.builtin system with
  | [] -> false
  | case :: _ -> (
      let ticket = Corpus.Case.original_ticket case in
      match Pipeline.learn ticket with
      | outcome -> outcome.Pipeline.accepted = []
      | exception _ -> false)

let run ?(seeds = [ 1; 2; 3 ]) ?(rate = 0.05) ?(smoke = false) () : result =
  let systems = if smoke then [ "zookeeper" ] else Corpus.Registry.builtin.systems in
  (* learning happens fault-free: the chaos target is enforcement *)
  reset_shared_state ();
  let books =
    List.map (fun s -> (s, System_scan.learn_system_book s)) systems
  in
  let plan_for seed = Resilience.Plan.make ~seed ~rate () in
  let baseline, baseline_render = run_once books in
  let seed_results =
    List.map
      (fun seed ->
        let first, _ = run_once ~plan:(plan_for seed) books in
        let second, _ = run_once ~plan:(plan_for seed) books in
        { sr_seed = seed; sr_first = first; sr_second = second })
      seeds
  in
  let parallel_seed = match seeds with s :: _ -> s | [] -> 1 in
  let parallel, _ = run_once ~plan:(plan_for parallel_seed) ~jobs:4 books in
  let _, post_render = run_once books in
  let outage_ok = oracle_outage_ok (List.hd systems) in
  {
    res_systems = systems;
    res_rate = rate;
    res_baseline = baseline;
    res_baseline_render = baseline_render;
    res_seeds = seed_results;
    res_parallel = parallel;
    res_post_render = post_render;
    res_oracle_outage_ok = outage_ok;
  }

(* chaos can suppress findings (lost evidence), never create them *)
let findings_subset ~(baseline : observation) (ob : observation) : bool =
  List.for_all
    (fun (system, version, ids) ->
      match
        List.find_opt
          (fun (s, v, _) -> s = system && v = version)
          baseline.ob_findings
      with
      | Some (_, _, base_ids) ->
          List.for_all (fun id -> List.mem id base_ids) ids
      | None -> ids = [])
    ob.ob_findings

let invariants (r : result) : (string * bool) list =
  let chaos_obs =
    List.concat_map (fun s -> [ s.sr_first; s.sr_second ]) r.res_seeds
    @ [ r.res_parallel ]
  in
  [
    ( "baseline runs fault-free",
      r.res_baseline.ob_crash = None
      && r.res_baseline.ob_faults = 0
      && r.res_baseline.ob_retries = 0
      && r.res_baseline.ob_quarantined = [] );
    ( "no injected fault escapes the engine",
      List.for_all (fun ob -> ob.ob_crash = None) chaos_obs );
    ( "faults actually fired under every plan",
      List.for_all (fun ob -> ob.ob_faults > 0) chaos_obs );
    ( "same seed replays identically (findings, degraded, quarantine, \
       retries, faults)",
      List.for_all (fun s -> s.sr_first = s.sr_second) r.res_seeds );
    ( "chaos findings are a subset of the baseline",
      List.for_all (findings_subset ~baseline:r.res_baseline) chaos_obs );
    ( "post-chaos no-fault run renders byte-identical to the baseline",
      r.res_post_render = r.res_baseline_render );
    ("oracle outage degrades learning instead of raising", r.res_oracle_outage_ok);
  ]

let invariants_ok (r : result) : bool =
  List.for_all snd (invariants r)

let print (r : result) : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  pf "chaos — E11 workload under seeded fault plans (rate %.2f, systems: %s)"
    r.res_rate
    (String.concat ", " r.res_systems);
  pf "--------------------------------------------------------------------";
  List.iter
    (fun s ->
      let ob = s.sr_first in
      pf "  seed %d: %d fault(s), %d retrie(s), %d quarantined, %d degraded \
          report set(s)%s"
        s.sr_seed ob.ob_faults ob.ob_retries
        (List.length ob.ob_quarantined)
        (List.length (List.filter (fun (_, _, ids) -> ids <> []) ob.ob_degraded))
        (match ob.ob_crash with
        | None -> ""
        | Some e -> Fmt.str " CRASH: %s" e))
    r.res_seeds;
  pf "  jobs=4 leg (seed %d): %d fault(s), %d quarantined%s"
    (match r.res_seeds with s :: _ -> s.sr_seed | [] -> 1)
    r.res_parallel.ob_faults
    (List.length r.res_parallel.ob_quarantined)
    (match r.res_parallel.ob_crash with
    | None -> ""
    | Some e -> Fmt.str " CRASH: %s" e);
  pf "";
  List.iter
    (fun (name, ok) -> pf "  [%s] %s" (if ok then "ok" else "FAIL") name)
    (invariants r);
  Buffer.contents buf
