(** The traced repetition ([--trace 1]): the work of a workload's public
    entry point, re-driven call by call in the same order, with a span
    from {!Spans} around each call.

    - scan: {!Lisa.System_scan.run_engine} — per system, its original
      tickets are learned into a book, then each scan version is
      assembled, parsed and enforced on one shared scheduler;
    - ci: {!Lisa.Ci.replay} — per stage, tests, enforcement and triage,
      then learning from the ticket that landed;
    - serve: the {!Serve.Daemon} request path — resolve (tickets,
      assembly, parse, learn on first touch), the response-cache key,
      and on a miss enforcement plus triage of any findings.

    Probes: [oracle.infer] splits [pipeline.learn];
    [analysis.prepare], [symexec.concolic] and [smt.judge] split
    [engine.enforce].  The enforce probes re-run only the work the
    engine did: rules it reused from the previous version are skipped,
    and only rules whose report is new ran the dynamic phase.  The judge
    probe runs with the SMT verdict cache off, so it times every path
    condition the engine judged (an upper bound on the judge layer). *)

module Case = Corpus.Case
module Registry = Corpus.Registry
module Checker = Engine.Checker
module Scheduler = Engine.Scheduler
module Rulebook = Semantics.Rulebook
module Rule = Semantics.Rule

type engine = {
  sched : Scheduler.t;
  mutable last : (string * Checker.rule_report) list;
      (** the previous enforcement's report per rule id *)
  mutable seen : Checker.rule_report list;  (** every report returned so far *)
}

type t = {
  sp : Spans.t;
  jobs : int;
  mutable engines : engine list;
  mutable tickets : int;
  mutable candidates : int;
  mutable accepted : int;
  mutable full_solves : int;
  mutable concolic_hits : int;
  mutable triage_findings : int;
}

let create ~jobs =
  {
    sp = Spans.create ();
    jobs;
    engines = [];
    tickets = 0;
    candidates = 0;
    accepted = 0;
    full_solves = 0;
    concolic_hits = 0;
    triage_findings = 0;
  }

let new_engine t =
  let e =
    {
      sched =
        Scheduler.create
          ~config:{ Scheduler.default_config with Scheduler.jobs = t.jobs }
          ();
      last = [];
      seen = [];
    }
  in
  t.engines <- e :: t.engines;
  e

let learn t (ticket : Oracle.Ticket.t) : Rule.t list =
  let o = Spans.layer t.sp "pipeline.learn" (fun () -> Lisa.Pipeline.learn ticket) in
  ignore (Spans.probe t.sp "oracle.infer" (fun () -> Oracle.Inference.infer ticket));
  t.tickets <- t.tickets + 1;
  t.candidates <-
    t.candidates + List.length o.Lisa.Pipeline.inference.Oracle.Inference.inf_rules;
  t.accepted <- t.accepted + List.length o.Lisa.Pipeline.accepted;
  o.Lisa.Pipeline.accepted

let program t ~file (source : unit -> string) : Minilang.Ast.program =
  let src = Spans.layer t.sp "corpus.assemble" source in
  Spans.layer t.sp "minilang.parse" (fun () -> Minilang.Parser.program ~file src)

let without_memo f =
  let was = Smt.Memo.enabled () in
  Smt.Memo.set_enabled false;
  Fun.protect ~finally:(fun () -> Smt.Memo.set_enabled was) f

(* [call] is the enforcement exactly as the entry point makes it; the
   engine's work is told apart by physical identity of the reports: an
   incrementally reused rule gets its previous report back, a
   report-cache hit gets one this engine returned before *)
let enforce t (e : engine) (p : Minilang.Ast.program) (book : Rulebook.t)
    (call : unit -> Checker.rule_report list) : Checker.rule_report list =
  let full0 = Smt.Solver.full_solve_count () in
  let reports = Spans.layer t.sp "engine.enforce" call in
  t.full_solves <- t.full_solves + Smt.Solver.full_solve_count () - full0;
  let pairs = List.combine (Rulebook.rules book) reports in
  let prepared =
    List.filter
      (fun ((r : Rule.t), rep) ->
        match List.assoc_opt r.Rule.rule_id e.last with
        | Some prev -> prev != rep
        | None -> true)
      pairs
  in
  let config = (Scheduler.config e.sched).Scheduler.checker in
  let preps =
    Spans.probe t.sp "analysis.prepare" (fun () ->
        let graph = Analysis.Callgraph.build p in
        List.map (fun ((r : Rule.t), rep) -> (rep, Checker.prepare ~config ~graph p r)) prepared)
  in
  List.iter
    (fun (rep, pr) ->
      if not (List.memq rep e.seen) then
        match
          Spans.probe t.sp "symexec.concolic" (fun () -> Checker.guard_evidence ~config p pr)
        with
        | None -> ()
        | Some (condition, hits) ->
            t.concolic_hits <- t.concolic_hits + List.length hits;
            ignore
              (Spans.probe t.sp "smt.judge" (fun () ->
                   without_memo (fun () -> Checker.judge_hits config ~condition hits))))
    preps;
  e.last <- List.map (fun ((r : Rule.t), rep) -> (r.Rule.rule_id, rep)) pairs;
  e.seen <- List.filter (fun rep -> not (List.memq rep e.seen)) reports @ e.seen;
  reports

(** {1 Workloads} *)

(** Scan rows: (system, version, violating rule ids). *)
let scan t (reg : Registry.t) : (string * int * string list) list =
  let e = new_engine t in
  Spans.group t.sp "scan" @@ fun () ->
  List.concat_map
    (fun system ->
      Spans.group t.sp "system" @@ fun () ->
      let tickets =
        Spans.layer t.sp "corpus.tickets" (fun () ->
            List.map Case.original_ticket (Registry.cases_of reg system))
      in
      let book = Rulebook.create ~system in
      List.iter (fun tk -> Rulebook.add_all book (learn t tk)) tickets;
      List.map
        (fun version ->
          let p =
            program t ~file:(Printf.sprintf "%s-v%d.mj" system version) (fun () ->
                Registry.source_of reg system ~version)
          in
          let reports =
            enforce t e p book (fun () -> Lisa.Pipeline.enforce_with e.sched p book)
          in
          (system, version, Scheduler.finding_ids reports))
        reg.Registry.scan_versions)
    reg.Registry.systems

(** CI histories: (case id, blocked stages). *)
let ci t (reg : Registry.t) : (string * int list) list =
  Spans.group t.sp "ci" @@ fun () ->
  List.map
    (fun (c : Case.t) ->
      Spans.group t.sp "case" @@ fun () ->
      let e = new_engine t in
      let book = Rulebook.create ~system:c.Case.system in
      let blocked = ref [] in
      for stage = 0 to c.Case.n_stages - 1 do
        let p =
          program t ~file:(Printf.sprintf "%s@stage%d.mj" c.Case.case_id stage)
            (fun () -> c.Case.source stage)
        in
        let failures = Spans.layer t.sp "minilang.interp" (fun () -> Lisa.Ci.run_tests p) in
        (if failures = [] then
           let reports =
             enforce t e p book (fun () -> Lisa.Pipeline.enforce_with e.sched p book)
           in
           let triaged =
             Spans.layer t.sp "triage" (fun () ->
                 Triage.triage_reports ~config:Triage.default_config p
                   (Lisa.Pipeline.findings reports))
           in
           List.iter
             (fun tr ->
               t.triage_findings <- t.triage_findings + List.length tr.Triage.t_findings)
             triaged;
           if List.exists Triage.blocking triaged then blocked := stage :: !blocked);
        match Spans.layer t.sp "corpus.tickets" (fun () -> Case.ticket_at c stage) with
        | None -> ()
        | Some ticket -> Rulebook.add_all book (learn t ticket)
      done;
      (c.Case.case_id, List.rev !blocked))
    reg.Registry.cases

type scope = System of string | Case of Case.t

(** Every serve key — each system, then each case, at each scan version
    — with its class for {!Streams.stratified}: the version, and the
    scope kind (a system, or a case by its position in its system). *)
let serve_keys (reg : Registry.t) : (scope * int) array * int array =
  let position = Hashtbl.create 64 in
  let scopes =
    List.map (fun s -> (System s, 0)) reg.Registry.systems
    @ List.map
        (fun (c : Case.t) ->
          let i = Option.value ~default:0 (Hashtbl.find_opt position c.Case.system) in
          Hashtbl.replace position c.Case.system (i + 1);
          (Case c, i + 1))
        reg.Registry.cases
  in
  let versions = reg.Registry.scan_versions in
  let keys =
    List.concat_map
      (fun (scope, kind) ->
        List.mapi (fun i v -> ((scope, v), (kind * List.length versions) + i)) versions)
      scopes
  in
  (Array.of_list (List.map fst keys), Array.of_list (List.map snd keys))

(** Violating rule ids per request, in request order. *)
let serve t (reg : Registry.t) (requests : (scope * int) list) : string list list =
  let books = Hashtbl.create 64
  and engines = Hashtbl.create 16
  and responses = Hashtbl.create 256 in
  let book_for key make =
    match Hashtbl.find_opt books key with
    | Some b -> b
    | None ->
        let b = make () in
        Hashtbl.replace books key b;
        b
  in
  Spans.group t.sp "serve" @@ fun () ->
  List.map
    (fun (scope, version) ->
      Spans.group t.sp "request" @@ fun () ->
      let system, book =
        match scope with
        | Case c ->
            let tickets = Spans.layer t.sp "corpus.tickets" (fun () -> Case.tickets c) in
            ( c.Case.system,
              book_for ("case:" ^ c.Case.case_id) (fun () ->
                  Rulebook.of_rules ~system:c.Case.system (learn t (List.hd tickets))) )
        | System s ->
            ( s,
              book_for ("sys:" ^ s) (fun () ->
                  let tickets =
                    Spans.layer t.sp "corpus.tickets" (fun () ->
                        List.map Case.original_ticket (Registry.cases_of reg s))
                  in
                  let b = Rulebook.create ~system:s in
                  List.iter (fun tk -> Rulebook.add_all b (learn t tk)) tickets;
                  b) )
      in
      let p =
        program t ~file:(Printf.sprintf "%s-v%d.mj" system version) (fun () ->
            Registry.source_of reg system ~version)
      in
      let key =
        Spans.layer t.sp "engine.fingerprint" (fun () ->
            let book_fp =
              Digest.to_hex
                (Digest.string
                   (String.concat "\n" (List.map Rule.to_string (Rulebook.rules book))))
            in
            Digest.to_hex
              (Digest.string
                 (String.concat "\x00"
                    [ system; string_of_int version; Engine.Fingerprint.program p; book_fp ])))
      in
      match Hashtbl.find_opt responses key with
      | Some ids -> ids
      | None ->
          let e =
            match Hashtbl.find_opt engines system with
            | Some e -> e
            | None ->
                let e = new_engine t in
                Hashtbl.replace engines system e;
                e
          in
          let reports = enforce t e p book (fun () -> Scheduler.enforce e.sched p book) in
          let ids = Scheduler.finding_ids reports in
          if ids <> [] then begin
            let triaged =
              Spans.layer t.sp "triage" (fun () ->
                  Triage.triage_reports ~config:Triage.default_config p
                    (List.filter Checker.has_violations reports))
            in
            List.iter
              (fun tr ->
                t.triage_findings <- t.triage_findings + List.length tr.Triage.t_findings)
              triaged
          end;
          if Scheduler.degraded_ids reports = [] then Hashtbl.replace responses key ids;
          ids)
    requests

(** {1 Results} *)

(** The per-layer metrics of the traced work, in {!Report.per_layer}
    order, followed by printed-only layer figures. *)
let metrics t : (string * float) list * (string * float * string) list =
  let ms kind name = 1000. *. Spans.total t.sp kind name in
  let stats = List.map (fun e -> Scheduler.stats e.sched) t.engines in
  let sum f = List.fold_left (fun n s -> n + f s) 0 stats in
  let job_wall =
    List.fold_left
      (fun w (s : Engine.Stats.t) ->
        (* the job-time ring is bounded: scale what it kept to every job *)
        let kept = List.length s.Engine.Stats.job_times in
        let kept_s =
          List.fold_left (fun a j -> a +. j.Engine.Stats.jt_wall_s) 0. s.Engine.Stats.job_times
        in
        if kept = 0 then w
        else w +. (kept_s *. float_of_int s.Engine.Stats.jobs_run /. float_of_int kept))
      0. stats
  in
  let engine_wall = List.fold_left (fun w s -> w +. s.Engine.Stats.wall_s) 0. stats in
  let jobs_run = sum (fun s -> s.Engine.Stats.jobs_run) in
  let report_hits = sum (fun s -> s.Engine.Stats.report_hits) in
  let report_misses = sum (fun s -> s.Engine.Stats.report_misses) in
  let smt_hits = sum (fun s -> s.Engine.Stats.smt_hits) in
  let smt_misses = sum (fun s -> s.Engine.Stats.smt_misses) in
  let intern_hits = sum (fun s -> s.Engine.Stats.intern_hits) in
  let intern_misses = sum (fun s -> s.Engine.Stats.intern_misses) in
  let intern_size =
    List.fold_left (fun m s -> max m s.Engine.Stats.intern_size) 0 stats
  in
  let enforce = ms Spans.Layer "engine.enforce" in
  let prepare = ms Spans.Probe "analysis.prepare" in
  let concolic = ms Spans.Probe "symexec.concolic" in
  let judge = ms Spans.Probe "smt.judge" in
  let infer = ms Spans.Probe "oracle.infer" in
  let wall = Spans.wall t.sp in
  let groups =
    List.fold_left
      (fun a (k, _, v) -> if k = Spans.Group then a +. v else a)
      0. (Spans.totals t.sp)
  in
  ( [
      ("corpus.assemble_ms", ms Spans.Layer "corpus.assemble");
      ("corpus.tickets_ms", ms Spans.Layer "corpus.tickets");
      ("minilang.parse_ms", ms Spans.Layer "minilang.parse");
      ("oracle.infer_ms", infer);
      ("learn.cross_check_ms", ms Spans.Layer "pipeline.learn" -. infer);
      ("engine.enforce_ms", enforce);
      ("analysis.prepare_ms", prepare);
      ("symexec.concolic_ms", concolic);
      ("smt.judge_ms", judge);
      ("oracle.tickets", float_of_int t.tickets);
      ("learn.accept_ratio", Stats.ratio t.accepted t.candidates);
      ("engine.jobs_run", float_of_int jobs_run);
      ("engine.report_hit_ratio", Stats.ratio report_hits (report_hits + report_misses));
      ("engine.incremental_reuses", float_of_int (sum (fun s -> s.Engine.Stats.incremental_reuses)));
      ( "engine.pool_busy_ratio",
        if engine_wall > 0. then job_wall /. (engine_wall *. float_of_int t.jobs) else 0. );
      ("smt.solver_calls", float_of_int (sum (fun s -> s.Engine.Stats.solver_calls)));
      ("smt.full_solves", float_of_int t.full_solves);
      ("smt.fastpath_saved", float_of_int (sum (fun s -> s.Engine.Stats.fastpath_saved)));
      ("smt.memo_hit_ratio", Stats.ratio smt_hits (smt_hits + smt_misses));
      ("core.intern_size", float_of_int intern_size);
      ("core.intern_hit_ratio", Stats.ratio intern_hits (intern_hits + intern_misses));
      ("symexec.hits", float_of_int t.concolic_hits);
    ],
    [
      ("minilang.interp_ms", ms Spans.Layer "minilang.interp", "ms");
      ("triage.ms", ms Spans.Layer "triage", "ms");
      ("triage.findings", float_of_int t.triage_findings, "count");
      ("engine.fingerprint_ms", ms Spans.Layer "engine.fingerprint", "ms");
      ("engine.other_ms", enforce -. prepare -. concolic -. judge, "ms");
      ("engine.retries", float_of_int (sum (fun s -> s.Engine.Stats.retries)), "count");
      ("trace.wall_s", wall, "s");
      ("trace.unattributed_share", (if wall > 0. then groups /. wall else 0.), "ratio");
    ] )
