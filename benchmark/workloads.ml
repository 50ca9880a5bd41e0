(** The workloads: what each measures, the child roles it spawns, and
    the checks of every verdict against {!Answers}.

    Load comes from this one process: children run one at a time, and
    the serve load generator is a single thread on one Unix-socket
    connection. *)

module Registry = Corpus.Registry
module Protocol = Serve.Protocol

type kind = Scan of int  (** engine jobs *) | Ci | Serve of bool  (** hot *)

type workload = { name : string; kind : kind; scale : int }

let all =
  [
    { name = "scan"; kind = Scan 1; scale = 10 };
    { name = "scan-jobs2"; kind = Scan 2; scale = 10 };
    { name = "ci"; kind = Ci; scale = 10 };
    { name = "serve-hot"; kind = Serve true; scale = 10 };
    { name = "serve-cold"; kind = Serve false; scale = 100 };
  ]

let jobs_of = function Scan j -> j | Ci | Serve _ -> 1

type settings = {
  seed : int;
  seconds : float;  (** measured time; serve splits it over its phases *)
  trace : bool;
  scale : int option;  (** overrides the workload's corpus scale *)
  min_reps : int;  (** scan, ci: repetitions even past [seconds] *)
}

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first, capped *)
  mutable e2e : (string * float) list;
  mutable layers : (string * float) list;
  mutable notes : (string * float * string) list;  (** printed only, newest first *)
  mutable messages : string list;  (** trace file, STALE, INVALID; newest first *)
}

let check r ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.problems < 20 then r.problems <- what :: r.problems
  end

let note r name value unit = r.notes <- (name, value, unit) :: r.notes

let message r fmt = Printf.ksprintf (fun m -> r.messages <- m :: r.messages) fmt

let ids_str = function [] -> "-" | ids -> String.concat "," ids

let registry ~seed ~scale = Corpus.Synth.registry ~seed ~scale ()

let out_dir = ".lisa_bench"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* ------------------------------------------------------------------ *)
(* Child records                                                       *)
(* ------------------------------------------------------------------ *)

let ready () = Printf.printf "ready %.6f\n%!" (Proc.now ())

let finish ~wall = Printf.printf "wall %.6f\nrss_kb %d\n" wall (Proc.peak_rss_kb ())

let select recs key =
  List.filter_map (function k :: rest when k = key -> Some rest | _ -> None) recs

let float_field recs key =
  match select recs key with
  | (v :: _) :: _ -> float_of_string v
  | _ -> failwith ("child reported no " ^ key)

(** One repetition in a fresh child: set-up time (process start to the
    first timed operation, corpus generation included), wall time of
    the timed work, peak RSS, and the child's records. *)
type rep = { setup : float; wall : float; rss_mb : float; recs : string list list }

let repeat (s : settings) (args : string list) : rep list =
  let deadline = Proc.now () +. s.seconds in
  let rec go acc n =
    if n >= s.min_reps && Proc.now () >= deadline then List.rev acc
    else
      let c = Proc.spawn args in
      let recs = Proc.records c in
      let rep =
        {
          setup = float_field recs "ready" -. c.Proc.spawned;
          wall = float_field recs "wall";
          rss_mb = float_field recs "rss_kb" /. 1024.;
          recs;
        }
      in
      go (rep :: acc) (n + 1)
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Traced repetition                                                   *)
(* ------------------------------------------------------------------ *)

let child_redrive ~name ~seed ~scale ~requests ~trace_file =
  let w = List.find (fun w -> w.name = name) all in
  let reg = registry ~seed ~scale in
  let t = Redrive.create ~jobs:(jobs_of w.kind) in
  (match w.kind with
  | Scan _ ->
      List.iter
        (fun (s, v, ids) -> Printf.printf "verdict %s %d %s\n" s v (ids_str ids))
        (Redrive.scan t reg)
  | Ci ->
      List.iter
        (fun (id, blocked) ->
          Printf.printf "blocked %s %s\n" id (ids_str (List.map string_of_int blocked)))
        (Redrive.ci t reg)
  | Serve hot ->
      let keys, classes = Redrive.serve_keys reg in
      let next = Streams.serve_keys ~hot ~seed ~classes in
      let reqs = List.init requests (fun _ -> keys.(next ())) in
      List.iteri
        (fun i ids -> Printf.printf "resp %d %s\n" (i + 1) (ids_str ids))
        (Redrive.serve t reg reqs));
  let metrics, extra = Redrive.metrics t in
  List.iter (fun (n, v) -> Printf.printf "metric %s %.17g\n" n v) metrics;
  List.iter (fun (n, v, u) -> Printf.printf "note %s %.17g %s\n" n v u) extra;
  List.iter
    (fun (k, n, v) ->
      if k <> Spans.Group then
        Printf.printf "note layer.%s%s %.17g ms\n" n
          (if k = Spans.Probe then ".probe" else "")
          (1000. *. v))
    (Spans.totals t.Redrive.sp);
  Spans.write_chrome t.Redrive.sp trace_file

(** One traced repetition in a fresh child: fills the per-layer metrics
    and returns the child's verdict records under [key] and the traced
    wall time. *)
let traced r (w : workload) (s : settings) ~scale ~requests ~key =
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" out_dir w.name s.seed in
  let recs =
    Proc.records
      (Proc.spawn
         [
           "--child"; "redrive"; w.name; string_of_int s.seed; string_of_int scale;
           string_of_int requests; path;
         ])
  in
  r.layers <-
    List.filter_map
      (function [ "metric"; n; v ] -> Some (n, float_of_string v) | _ -> None)
      recs;
  List.iter
    (function [ "note"; n; v; u ] -> note r n (float_of_string v) u | _ -> ())
    recs;
  message r "trace: %s" path;
  let wall =
    List.find_map
      (function [ "note"; "trace.wall_s"; v; _ ] -> Some (float_of_string v) | _ -> None)
      recs
  in
  (List.sort compare (select recs key), Option.get wall)

(* the traced loop re-drives the entry point's calls: falling more than
   10% outside the untraced repetitions' range (one repetition alone
   varies by more than 10% on a noisy host) means the program's
   structure moved *)
let overhead r ~traced_wall ~walls =
  note r "trace.overhead" ((traced_wall /. Stats.median walls) -. 1.) "ratio";
  let lo = Stats.minimum walls and hi = Stats.maximum walls in
  if traced_wall < 0.9 *. lo || traced_wall > 1.1 *. hi then
    message r
      "STALE: the traced re-drive took %.3fs against %.3f-%.3fs untraced; \
       update benchmark/redrive.ml to the entry point's structure"
      traced_wall lo hi

let same_verdicts r (w : workload) traced untraced =
  check r (traced = List.sort compare untraced)
    (w.name ^ ": traced verdicts differ from the untraced run")

(* ------------------------------------------------------------------ *)
(* Scan                                                                *)
(* ------------------------------------------------------------------ *)

let child_scan ~seed ~scale ~jobs =
  let reg = registry ~seed ~scale in
  ready ();
  let t0 = Proc.now () in
  let results, _ =
    Lisa.System_scan.run_engine
      ~engine_config:{ Engine.Scheduler.default_config with Engine.Scheduler.jobs }
      ~registry:reg ()
  in
  let wall = Proc.now () -. t0 in
  List.iter
    (fun (sr : Lisa.System_scan.system_result) ->
      List.iter
        (fun (vr : Lisa.System_scan.version_row) ->
          Printf.printf "verdict %s %d %s\n" sr.Lisa.System_scan.sys_name
            vr.Lisa.System_scan.vr_version
            (ids_str vr.Lisa.System_scan.vr_violating_rules))
        sr.Lisa.System_scan.sys_rows)
    results;
  finish ~wall

(* every (system, version) row present, each firing exactly the planted
   tickets of its regressed cases *)
let check_scan r (reg : Registry.t) (verdicts : string list list) =
  List.iter
    (fun system ->
      List.iter
        (fun v ->
          let expected = Answers.expect_system reg system v in
          match
            List.find_map
              (function
                | [ s; v'; ids ] when s = system && v' = string_of_int v ->
                    Some (Answers.fired (Proc.field_ids ids))
                | _ -> None)
              verdicts
          with
          | Some fired when fired = expected -> check r true ""
          | fired ->
              check r false
                (Printf.sprintf "scan: %s v%d fired [%s], expected [%s]" system v
                   (match fired with None -> "no verdict" | Some f -> ids_str f)
                   (ids_str expected)))
        reg.Registry.scan_versions)
    reg.Registry.systems

let scan r (w : workload) (s : settings) ~scale ~jobs =
  let reg = registry ~seed:s.seed ~scale in
  let reps =
    repeat s
      [ "--child"; "scan"; string_of_int s.seed; string_of_int scale; string_of_int jobs ]
  in
  List.iter (fun rep -> check_scan r reg (select rep.recs "verdict")) reps;
  let median f = Stats.median (List.map f reps) in
  let n_cases = float_of_int (Registry.case_count reg) in
  let walls = List.map (fun rep -> rep.wall) reps in
  r.e2e <-
    [
      ("setup_s", median (fun rep -> rep.setup));
      ("throughput_per_s", n_cases /. Stats.minimum walls);
      ("latency_ms", 1000. *. Stats.minimum walls);
      ("peak_rss_mb", median (fun rep -> rep.rss_mb));
    ];
  note r "reps" (float_of_int (List.length reps)) "count";
  note r "scan_ms_median" (1000. *. Stats.median walls) "ms";
  note r "cases_per_s_median" (n_cases /. Stats.median walls) "cases/s";
  if s.trace then begin
    let verdicts, traced_wall = traced r w s ~scale ~requests:0 ~key:"verdict" in
    same_verdicts r w verdicts (select (List.hd reps).recs "verdict");
    overhead r ~traced_wall ~walls:(List.map (fun rep -> rep.wall) reps)
  end

(* ------------------------------------------------------------------ *)
(* CI                                                                  *)
(* ------------------------------------------------------------------ *)

let child_ci ~seed ~scale =
  let reg = registry ~seed ~scale in
  ready ();
  let t0 = Proc.now () in
  List.iter
    (fun (c : Corpus.Case.t) ->
      let h0 = Proc.now () in
      let run = Lisa.Ci.replay ~triage:Triage.default_config c in
      let ms = (Proc.now () -. h0) *. 1000. in
      Printf.printf "blocked %s %s\nhist %.6f\n" c.Corpus.Case.case_id
        (ids_str (List.map string_of_int (Lisa.Ci.blocked_stages run)))
        ms)
    reg.Registry.cases;
  finish ~wall:(Proc.now () -. t0)

let check_ci r (reg : Registry.t) (blocked : string list list) =
  List.iter
    (fun (c : Corpus.Case.t) ->
      let expected = ids_str (List.map string_of_int (Answers.expect_blocked c)) in
      match
        List.find_map
          (function [ id; b ] when id = c.Corpus.Case.case_id -> Some b | _ -> None)
          blocked
      with
      | Some b when b = expected -> check r true ""
      | b ->
          check r false
            (Printf.sprintf "ci: %s blocked [%s], expected [%s]" c.Corpus.Case.case_id
               (Option.value b ~default:"no history") expected))
    reg.Registry.cases

let ci r (w : workload) (s : settings) ~scale =
  let reg = registry ~seed:s.seed ~scale in
  let reps = repeat s [ "--child"; "ci"; string_of_int s.seed; string_of_int scale ] in
  List.iter (fun rep -> check_ci r reg (select rep.recs "blocked")) reps;
  let median f = Stats.median (List.map f reps) in
  let commits =
    List.fold_left (fun n c -> n + c.Corpus.Case.n_stages) 0 reg.Registry.cases
  in
  let hists_of rep = List.map (fun h -> float_of_string (List.hd h)) (select rep.recs "hist") in
  let hists = List.concat_map hists_of reps in
  let per_s rep = float_of_int commits /. rep.wall in
  r.e2e <-
    [
      ("setup_s", median (fun rep -> rep.setup));
      ("throughput_per_s", Stats.maximum (List.map per_s reps));
      ("latency_ms", Stats.minimum (List.map (fun rep -> Stats.percentile (hists_of rep) 500) reps));
      ("peak_rss_mb", median (fun rep -> rep.rss_mb));
    ];
  note r "reps" (float_of_int (List.length reps)) "count";
  note r "commits_per_s_median" (median per_s) "commits/s";
  note r "history_samples" (float_of_int (List.length hists)) "count";
  note r "history_p50_ms" (Stats.percentile hists 500) "ms";
  Option.iter
    (fun pm ->
      note r ("history_" ^ Stats.pm_label pm ^ "_ms") (Stats.percentile hists pm) "ms")
    (Stats.tail_pm (List.length hists));
  if s.trace then begin
    let verdicts, traced_wall = traced r w s ~scale ~requests:0 ~key:"blocked" in
    same_verdicts r w verdicts (select (List.hd reps).recs "blocked");
    overhead r ~traced_wall ~walls:(List.map (fun rep -> rep.wall) reps)
  end

(* ------------------------------------------------------------------ *)
(* Serve                                                               *)
(* ------------------------------------------------------------------ *)

let child_daemon ~seed ~scale ~socket =
  let reg = registry ~seed ~scale in
  let d =
    Serve.Daemon.create
      ~config:{ Serve.Daemon.default_config with Serve.Daemon.registry = reg }
      ()
  in
  Serve.Daemon.serve_socket d ~path:socket;
  Printf.printf "rss_kb %d\n" (Proc.peak_rss_kb ())

type req = {
  key : int;  (** index into the key table *)
  phase : int;  (** -1 warm-up, else the ladder step or the capacity phase *)
  due : float;
  sent : float;
  mutable recv : float;
  mutable reply : Protocol.response option;
}

type conn = {
  fd : Unix.file_descr;
  inbox : Buffer.t;
  chunk : Bytes.t;
  reqs : (string, req) Hashtbl.t;  (** by request id *)
  mutable order : req list;  (** newest first *)
  mutable sent_n : int;
  mutable outstanding : int;
  mutable stray : string list;  (** replies matching no request *)
}

let rec connect path ~until =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      {
        fd;
        inbox = Buffer.create 4096;
        chunk = Bytes.create 65536;
        reqs = Hashtbl.create 4096;
        order = [];
        sent_n = 0;
        outstanding = 0;
        stray = [];
      }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when Proc.now () < until ->
      Unix.close fd;
      Unix.sleepf 0.001;
      connect path ~until

let send conn line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring conn.fd s off (String.length s - off))
  in
  go 0

let handle conn line =
  let stray why = conn.stray <- why :: conn.stray in
  if line <> "" then
    match Protocol.parse_response line with
    | Error e -> stray e
    | Ok resp -> (
        match Hashtbl.find_opt conn.reqs (Protocol.response_id resp) with
        | Some q when q.reply = None ->
            q.recv <- Proc.now ();
            q.reply <- Some resp;
            conn.outstanding <- conn.outstanding - 1
        | _ -> stray line)

(* read and handle the replies that arrive within [timeout] seconds *)
let pump conn ~timeout =
  match Unix.select [ conn.fd ] [] [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | [], _, _ -> ()
  | _ ->
      let n = Unix.read conn.fd conn.chunk 0 (Bytes.length conn.chunk) in
      if n = 0 then failwith "serve: the daemon closed the connection";
      Buffer.add_subbytes conn.inbox conn.chunk 0 n;
      let lines = String.split_on_char '\n' (Buffer.contents conn.inbox) in
      let rec go = function
        | [] -> ()
        | [ partial ] ->
            Buffer.clear conn.inbox;
            Buffer.add_string conn.inbox partial
        | line :: rest ->
            handle conn line;
            go rest
      in
      go lines

let register conn id q =
  Hashtbl.replace conn.reqs id q;
  conn.outstanding <- conn.outstanding + 1

let await conn (q : req) ~limit =
  let until = Proc.now () +. limit in
  while q.reply = None && Proc.now () < until do
    pump conn ~timeout:(until -. Proc.now ())
  done

(* ping / stats / shutdown, waited for *)
let control conn op : Protocol.response option =
  let now = Proc.now () in
  let q = { key = -1; phase = -2; due = now; sent = now; recv = nan; reply = None } in
  register conn op q;
  send conn (Printf.sprintf {|{"op":"%s","id":"%s"}|} op op);
  await conn q ~limit:30.;
  Hashtbl.remove conn.reqs op;
  q.reply

let request_line ~id ~tenant ((scope : Redrive.scope), version) =
  match scope with
  | Redrive.System s ->
      Printf.sprintf {|{"id":"%s","tenant":"%s","system":"%s","version":%d}|} id tenant s
        version
  | Redrive.Case c ->
      Printf.sprintf {|{"id":"%s","tenant":"%s","case":"%s","version":%d}|} id tenant
        c.Corpus.Case.case_id version

(* the next stream request; three tenants take turns *)
let submit conn keys next_key ~phase ~due =
  conn.sent_n <- conn.sent_n + 1;
  let id = string_of_int conn.sent_n in
  let key = next_key () in
  let line = request_line ~id ~tenant:(Printf.sprintf "t%d" (conn.sent_n mod 3)) keys.(key) in
  let q = { key; phase; due; sent = Proc.now (); recv = nan; reply = None } in
  register conn id q;
  conn.order <- q :: conn.order;
  send conn line;
  q

let closed conn keys next_key ~phase =
  let q = submit conn keys next_key ~phase ~due:(Proc.now ()) in
  await conn q ~limit:5.

(* open loop: requests fall due on a Poisson schedule, sent whether or
   not earlier replies arrived; returns when the step ends *)
let open_step conn keys next_key arrivals ~phase ~rate ~duration =
  let offsets = Streams.poisson_arrivals arrivals ~rate ~duration in
  let t0 = Proc.now () in
  Array.iter
    (fun off ->
      let due = t0 +. off in
      while Proc.now () < due do
        pump conn ~timeout:(due -. Proc.now ())
      done;
      ignore (submit conn keys next_key ~phase ~due))
    offsets;
  let stop = t0 +. duration in
  while Proc.now () < stop do
    pump conn ~timeout:(stop -. Proc.now ())
  done;
  stop

let start_daemon ~socket ~seed ~scale =
  let c =
    Proc.spawn [ "--child"; "daemon"; string_of_int seed; string_of_int scale; socket ]
  in
  let conn = connect socket ~until:(Proc.now () +. 60.) in
  match control conn "ping" with
  | Some (Protocol.Ok_ping _) -> (c, conn, Proc.now () -. c.Proc.spawned)
  | _ -> failwith "serve: the daemon did not answer ping"

(* shut the daemon down; its peak RSS in MiB *)
let stop_daemon c conn =
  ignore (control conn "shutdown");
  Unix.close conn.fd;
  float_field (Proc.records c) "rss_kb" /. 1024.

let latency_limit_ms = 20.

let serve r (w : workload) (s : settings) ~scale ~hot =
  let reg = registry ~seed:s.seed ~scale in
  let keys, classes = Redrive.serve_keys reg in
  let next_key = Streams.serve_keys ~hot ~seed:s.seed ~classes in
  let socket = Printf.sprintf "%s/serve-%d.sock" out_dir (Unix.getpid ()) in
  (* set-up is measured seven times: spawn to the first ping reply *)
  let setups = ref [] in
  let rec daemon n =
    let c, conn, setup = start_daemon ~socket ~seed:s.seed ~scale in
    setups := setup :: !setups;
    if n = 1 then (c, conn)
    else begin
      ignore (stop_daemon c conn);
      daemon (n - 1)
    end
  in
  let c, conn = daemon 7 in
  (* untimed: every key once, so the timed phases see only hits *)
  if hot then
    for _ = 1 to Array.length keys do
      closed conn keys next_key ~phase:(-1)
    done;
  (* the rate ladder: (req/s, label, share of the measured time); the
     low step, whose p50 is the end-to-end latency, gets the most *)
  let ladder =
    if hot then
      [ (100., "low", 0.35); (200., "mid", 0.15); (300., "r300", 0.1); (400., "r400", 0.1) ]
    else [ (30., "low", 0.5); (60., "mid", 0.2) ]
  in
  let n_steps = List.length ladder in
  let arrivals = Streams.rng ~seed:s.seed ~salt:3 in
  let step_ends =
    List.mapi
      (fun phase (rate, _, share) ->
        open_step conn keys next_key arrivals ~phase ~rate ~duration:(share *. s.seconds))
      ladder
  in
  let redriven = conn.sent_n in
  (* capacity, for the rest of the time: one closed-loop client *)
  let cap0 = Proc.now () in
  let cap_end = cap0 +. (s.seconds *. List.fold_left (fun a (_, _, sh) -> a -. sh) 1. ladder) in
  while Proc.now () < cap_end do
    closed conn keys next_key ~phase:n_steps
  done;
  let drain_until = Proc.now () +. 5. in
  while conn.outstanding > 0 && Proc.now () < drain_until do
    pump conn ~timeout:(drain_until -. Proc.now ())
  done;
  let counters =
    match control conn "stats" with
    | Some (Protocol.Ok_stats { fields; _ }) -> fields
    | _ -> []
  in
  let rss_mb = stop_daemon c conn in
  let reqs = List.rev conn.order in
  let expected q =
    match keys.(q.key) with
    | Redrive.System sys, v -> Answers.expect_system reg sys v
    | Redrive.Case cs, v -> Answers.expect_case cs v
  in
  let describe q =
    match keys.(q.key) with
    | Redrive.System sys, v -> Printf.sprintf "system %s v%d" sys v
    | Redrive.Case cs, v -> Printf.sprintf "case %s v%d" cs.Corpus.Case.case_id v
  in
  let answer q =
    match q.reply with
    | Some (Protocol.Ok_enforce { summary; stats; cached; _ }) -> Some (summary, stats, cached)
    | _ -> None
  in
  let is_shed q = match q.reply with Some (Protocol.Overloaded _) -> true | _ -> false in
  (* every request answered within 5 s with the known answer; shed
     requests are counted apart, and fail their step *)
  List.iter
    (fun q ->
      match (answer q, q.reply) with
      | Some (sum, _, _), _ ->
          let findings = sum.Protocol.sum_findings in
          check r
            (Answers.fired findings = expected q && q.recv -. q.sent <= 5.)
            (Printf.sprintf "serve: %s answered [%s] after %.0f ms, expected [%s]"
               (describe q) (ids_str findings)
               ((q.recv -. q.sent) *. 1000.)
               (ids_str (expected q)))
      | None, Some (Protocol.Overloaded _) -> r.attempted <- r.attempted + 1
      | None, Some resp ->
          check r false
            (Printf.sprintf "serve: %s got %s" (describe q) (Protocol.verdict_signature resp))
      | None, None -> check r false (Printf.sprintf "serve: %s got no reply within 5 s" (describe q)))
    reqs;
  List.iter (fun why -> check r false ("serve: stray reply " ^ why)) conn.stray;
  let ms x = 1000. *. x in
  let timing q = { Streams.due = q.due; sent = q.sent; recv = q.recv } in
  let answered qs = List.filter (fun q -> answer q <> None) qs in
  let in_phase p = List.filter (fun q -> q.phase = p) reqs in
  (* the tail-rule percentile of [xs], named by [name] from its label *)
  let tail_note name xs =
    Option.iter
      (fun pm -> note r (name (Stats.pm_label pm)) (Stats.percentile xs pm) "ms")
      (Stats.tail_pm (List.length xs))
  in
  (* the ladder, per step: latency from due time, shed, failures, and
     whether the backlog grew (more outstanding at the step's end than
     the latency limit allows at its rate, by Little's law) *)
  let steps =
    List.mapi
      (fun phase ((rate, label, _), stop) ->
        let qs = in_phase phase in
        let lat = List.map (fun q -> ms (Streams.latency (timing q))) (answered qs) in
        let tail =
          match Stats.tail_pm (List.length lat) with
          | Some pm -> Stats.percentile lat pm
          | None -> List.fold_left Float.max 0. lat
        in
        let shed = List.length (List.filter is_shed qs) in
        let failed = List.length qs - List.length lat - shed in
        let backlog = List.length (List.filter (fun q -> not (q.recv <= stop)) qs) in
        let growing = float_of_int backlog > Float.max 4. (rate *. latency_limit_ms /. 1000.) in
        note r (label ^ ".rate_rps") rate "req/s";
        note r (label ^ ".samples") (float_of_int (List.length lat)) "count";
        note r (label ^ ".p50_ms") (Stats.percentile lat 500) "ms";
        tail_note (Printf.sprintf "%s.%s_ms" label) lat;
        note r (label ^ ".shed") (float_of_int shed) "count";
        note r (label ^ ".backlog_at_end") (float_of_int backlog) "count";
        (rate, lat, tail <= latency_limit_ms && shed = 0 && failed = 0 && not growing))
      (List.combine ladder step_ends)
  in
  (* the highest step of an unbroken run of passing steps from the bottom *)
  let rec max_rate best = function
    | (rate, _, true) :: rest -> max_rate rate rest
    | _ -> best
  in
  note r "max_rate_rps" (max_rate 0. steps) "req/s";
  let ladder_reqs = List.filter (fun q -> q.phase >= 0 && q.phase < n_steps) reqs in
  let late = List.map (fun q -> ms (Streams.lateness (timing q))) ladder_reqs in
  tail_note (Printf.sprintf "loadgen.late_%s_ms") late;
  (match Stats.tail_pm (List.length late) with
  | Some pm when Stats.percentile late pm > 2. ->
      message r "INVALID: the load generator ran more than 2 ms late at its tail"
  | _ -> ());
  (* from the wire: queue wait and run time of each reply; the rest of
     its latency is resolve, cache lookup, codec and socket *)
  let wire f =
    List.filter_map (fun q -> Option.map (fun (_, st, _) -> f q st) (answer q)) ladder_reqs
  in
  tail_note (Printf.sprintf "serve.queue_ms_%s") (wire (fun _ st -> st.Protocol.rs_queue_ms));
  note r "serve.run_ms_p50" (Stats.percentile (wire (fun _ st -> st.Protocol.rs_run_ms)) 500) "ms";
  note r "serve.other_ms_p50"
    (Stats.percentile
       (wire (fun q st -> ms (q.recv -. q.sent) -. st.Protocol.rs_queue_ms -. st.Protocol.rs_run_ms))
       500)
    "ms";
  let timed = List.filter (fun q -> q.phase >= 0) reqs in
  let hits = List.filter (fun q -> match answer q with Some (_, _, c) -> c | None -> false) timed in
  note r "serve.hit_ratio" (Stats.ratio (List.length hits) (List.length timed)) "ratio";
  note r "serve.shed_share"
    (Stats.ratio (List.length (List.filter is_shed reqs)) (List.length reqs))
    "ratio";
  List.iter
    (fun (field, name) ->
      Option.iter (fun v -> note r name (float_of_int v) "count") (List.assoc_opt field counters))
    [ ("response_cache", "serve.response_cache_entries"); ("smt_memo", "serve.smt_memo_entries") ];
  let cap_done = answered (in_phase n_steps) in
  note r "capacity.requests" (float_of_int (List.length cap_done)) "count";
  (* the rate of each of nine consecutive runs of equally many
     completions: the median rejects the runs a GC cycle or a noisy
     neighbour hit *)
  let done_at = Array.of_list (List.sort compare (List.map (fun q -> q.recv) cap_done)) in
  let k = max 1 (Array.length done_at / 9) in
  let per_run =
    List.init (Array.length done_at / k) (fun i ->
        let start = if i = 0 then cap0 else done_at.((i * k) - 1) in
        float_of_int k /. (done_at.(((i + 1) * k) - 1) -. start))
  in
  let _, low, _ = List.hd steps in
  r.e2e <-
    [
      ("setup_s", Stats.median !setups);
      ("throughput_per_s", Stats.median per_run);
      ("latency_ms", Stats.percentile low 500);
      ("peak_rss_mb", rss_mb);
    ];
  if s.trace then begin
    (* the re-drive covers the warm-up and the ladder; shed requests
       have no verdict to compare *)
    let verdicts, _ = traced r w s ~scale ~requests:redriven ~key:"resp" in
    let untraced =
      List.filteri (fun i _ -> i < redriven) reqs
      |> List.mapi (fun i q ->
             Option.map
               (fun (sum, _, _) -> [ string_of_int (i + 1); ids_str sum.Protocol.sum_findings ])
               (answer q))
      |> List.filter_map Fun.id
    in
    let ids = List.map List.hd untraced in
    same_verdicts r w
      (List.filter (fun v -> List.mem (List.hd v) ids) verdicts)
      untraced
  end

(** Run one workload. *)
let run (w : workload) (s : settings) : result =
  ensure_out_dir ();
  let r =
    { attempted = 0; failed = 0; problems = []; e2e = []; layers = []; notes = []; messages = [] }
  in
  let scale = Option.value s.scale ~default:w.scale in
  (match w.kind with
  | Scan jobs -> scan r w s ~scale ~jobs
  | Ci -> ci r w s ~scale
  | Serve hot -> serve r w s ~scale ~hot);
  note r "failed_share" (Stats.ratio r.failed r.attempted) "ratio";
  r

(** The child roles: [--child ROLE ARGS]. *)
let child (role : string) (args : string list) : unit =
  let i = int_of_string in
  match (role, args) with
  | "scan", [ seed; scale; jobs ] -> child_scan ~seed:(i seed) ~scale:(i scale) ~jobs:(i jobs)
  | "ci", [ seed; scale ] -> child_ci ~seed:(i seed) ~scale:(i scale)
  | "daemon", [ seed; scale; socket ] -> child_daemon ~seed:(i seed) ~scale:(i scale) ~socket
  | "redrive", [ name; seed; scale; requests; trace_file ] ->
      child_redrive ~name ~seed:(i seed) ~scale:(i scale) ~requests:(i requests) ~trace_file
  | _ -> failwith ("unknown child role " ^ String.concat " " (role :: args))
