(** Engine run statistics.

    The engine owns a {!recorder} per {!Scheduler.t}.  Counts are not
    kept here: every counter lives once in the [Telemetry.Metrics]
    registry, declared by the module that bumps it.  The recorder takes
    one registry sample before an enforcement and one after and adds the
    difference, so every declared counter — including ones added after
    this module was written — reaches {!snapshot} with no per-counter
    code.

    "Solver calls saved" counts SMT verdict cache hits — each one is a
    {!Smt.Solver.solve} invocation that did not happen. *)

type job_time = {
  jt_rule_id : string;
  jt_wall_s : float;  (** dynamic-phase wall time of this job *)
}

type t = {
  enforcements : int;  (** [enforce] calls served *)
  jobs_run : int;  (** dynamic phases actually executed *)
  report_hits : int;
  report_misses : int;
  incremental_reuses : int;
      (** these three are always 0: the engine keeps no report cache and
          no memory of the previous version.  Kept only because the
          benchmark reports them *)
  smt_hits : int;  (** verdict-cache hits during our runs *)
  smt_misses : int;
  intern_hits : int;  (** hash-cons table hits during our runs *)
  intern_misses : int;  (** fresh nodes interned during our runs *)
  intern_size : int;
      (** live interned nodes (terms + formulas + strings) at snapshot
          time — process-global, monotone: hashcons tables never evict *)
  solver_calls : int;  (** {!Smt.Solver.solve} calls during our runs *)
  fastpath_saved : int;
      (** always 0: the solver has no fast path.  Kept only because the
          benchmark reports it as [smt.fastpath_saved] *)
  wall_s : float;  (** total [enforce] wall time *)
  job_times : job_time list;  (** newest first, bounded by the ring *)
  retries : int;
      (** always 0: the engine never retries a job.  Kept only
          because the benchmark reports it as [engine.retries] *)
  degraded_jobs : int;
      (** jobs whose report carries a degradation reason (out-of-fuel
          runs, undecided verdicts, quarantine placeholders) *)
  quarantined : string list;
      (** rule ids whose jobs raised and were quarantined, newest first *)
  counters : (string * int) list;
      (** every registry metric's total over our runs, in declaration
          order *)
}

type recorder = {
  cap : int;  (** ring capacity for job times *)
  lock : Mutex.t;
  mutable totals : int array;  (** per registry metric, declaration order *)
  mutable wall : float;
  ring : job_time option array;
  mutable head : int;  (** next write slot *)
  mutable total : int;  (** job times ever recorded *)
  mutable quarantined_ids : string list;  (** newest first *)
}

let recorder ?(job_times_cap = 1024) () =
  let cap = max 1 job_times_cap in
  {
    cap;
    lock = Mutex.create ();
    totals = [||];
    wall = 0.;
    ring = Array.make cap None;
    head = 0;
    total = 0;
    quarantined_ids = [];
  }

let with_lock r f =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

(* a metric declared after a sample was taken reads 0 in it *)
let at (a : int array) i = if i < Array.length a then a.(i) else 0

let record r ~wall (before : int array) (after : int array) =
  with_lock r (fun () ->
      r.totals <- Array.mapi (fun i v -> at r.totals i + v - at before i) after;
      r.wall <- r.wall +. wall)

let add_job_time r jt =
  with_lock r (fun () ->
      r.ring.(r.head) <- Some jt;
      r.head <- (r.head + 1) mod r.cap;
      r.total <- r.total + 1)

let quarantine r rule_id =
  with_lock r (fun () -> r.quarantined_ids <- rule_id :: r.quarantined_ids)

let reset r =
  with_lock r (fun () ->
      r.totals <- [||];
      r.wall <- 0.;
      Array.fill r.ring 0 r.cap None;
      r.head <- 0;
      r.total <- 0;
      r.quarantined_ids <- [])

(* newest first, at most [cap] entries *)
let job_times_of r =
  let n = min r.total r.cap in
  let rec collect i acc =
    if i >= n then List.rev acc
    else
      let slot = (r.head - 1 - i + (2 * r.cap)) mod r.cap in
      match r.ring.(slot) with
      | Some jt -> collect (i + 1) (jt :: acc)
      | None -> List.rev acc
  in
  collect 0 []

let snapshot r : t =
  let totals, wall_s, job_times, quarantined =
    with_lock r (fun () -> (r.totals, r.wall, job_times_of r, r.quarantined_ids))
  in
  let counters =
    List.mapi (fun i (name, _) -> (name, at totals i)) (Telemetry.Metrics.declared ())
  in
  let count name = Option.value ~default:0 (List.assoc_opt name counters) in
  {
    enforcements = count "engine.enforcements";
    jobs_run = count "engine.jobs_run";
    report_hits = 0;
    report_misses = 0;
    incremental_reuses = 0;
    smt_hits = count "smt.memo.hits";
    smt_misses = count "smt.memo.misses";
    intern_hits = count "core.intern.hits";
    intern_misses = count "core.intern.misses";
    intern_size = Smt.Formula.intern_size ();
    solver_calls = count "smt.solve_calls";
    fastpath_saved = 0;
    wall_s;
    job_times;
    retries = 0;
    degraded_jobs = count "engine.degraded_jobs";
    quarantined;
    counters;
  }

let counters (s : t) = s.counters

(** SMT verdict-cache hits: solver invocations that never happened. *)
let solver_calls_saved (s : t) : int = s.smt_hits

let to_string (s : t) : string =
  let base =
    Fmt.str
      "engine: %d enforcement(s), %d job(s) run, smt cache %d/%d hit/miss, \
       %d solver call(s) (%d saved), %.3fs wall"
      s.enforcements s.jobs_run s.smt_hits s.smt_misses s.solver_calls
      (solver_calls_saved s) s.wall_s
  in
  (* Resilience counters only appear once something went wrong, so the
     healthy-run string is byte-identical to the pre-resilience engine. *)
  if s.degraded_jobs = 0 && s.quarantined = [] then base
  else
    Fmt.str "%s, %d degraded job(s), %d quarantined" base s.degraded_jobs
      (List.length s.quarantined)

(* Bounded selection of the [n] largest by [jt_wall_s] — O(len × n)
   instead of sorting the whole list, with exactly the tie order a
   stable descending sort would give: a later element never displaces
   an equal earlier one. *)
let top_n n jts =
  let insert acc jt =
    let rec go = function
      | [] -> [ jt ]
      | x :: rest when x.jt_wall_s >= jt.jt_wall_s -> x :: go rest
      | rest -> jt :: rest
    in
    let acc = go acc in
    if List.length acc > n then List.filteri (fun i _ -> i < n) acc else acc
  in
  List.fold_left insert [] jts

(** The [n] slowest jobs, one per line. *)
let slowest_jobs ?(n = 5) (s : t) : string =
  top_n n s.job_times
  |> List.map (fun jt ->
         Fmt.str "  %-24s %8.1f ms" jt.jt_rule_id (1000. *. jt.jt_wall_s))
  |> String.concat "\n"
