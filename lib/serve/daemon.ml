(** The enforcement daemon: warm caches and one stateless engine behind
    a fair, bounded admission queue.

    Request lifecycle: accept loop parses a JSONL line → admission
    ({!Queue}; full queue sheds with an [overloaded] response, the
    accept loop never blocks on the worker) → worker domain pops in
    per-tenant round-robin order → per-tenant circuit breaker
    ({!Resilience.Kbreaker}; open = [rejected]/[breaker_open]) →
    validation to the request's {e coordinates} ([(system, version)] or
    [(case, ticket, version)], checked against the registry without
    reading a source) → key memo (coordinates → response-cache key) →
    fingerprint-keyed response cache → the daemon's one
    {!Engine.Scheduler} (stateless: {!Smt.Memo} and the hash-cons
    tables are the only state warm from previous requests; the
    scheduler only sums statistics) → response.

    Only a key-memo miss assembles and parses the release, learns (or
    reuses) the rulebook and fingerprints both into the key, so a
    response-cache hit on memoized coordinates reads no source.  The
    memo holds 32-char keys, never programs, books or verdicts, and
    gains an entry only once resolution and keying succeeded: it is
    bounded by (systems + Σ tickets) × (max_version + 1) of the
    daemon's fixed registry.  Failing or invalid requests never enter
    it.

    With a cache dir, the response cache is persisted as a {!Snapshot}
    and reloaded on the next start; an unreadable snapshot degrades to a
    cold start, never a crash. *)

module Trace = Telemetry.Trace
module Clock = Telemetry.Clock
module Event = Telemetry.Event

type config = {
  jobs : int;
  queue_depth : int;
  breaker_threshold : int;
  breaker_cooldown : int;
  cache_dir : string option;
  drain_after_eof : bool;
  triage : Triage.config option;
  registry : Corpus.Registry.t;
      (** the corpus the daemon serves: case lookups, system assembly and
          learned books all resolve against this value *)
}

let default_config =
  {
    jobs = 1;
    queue_depth = 64;
    breaker_threshold = 3;
    breaker_cooldown = 8;
    cache_dir = None;
    drain_after_eof = false;
    triage = Some Triage.default_config;
    registry = Corpus.Registry.builtin;
  }

(* a validated enforce request, canonicalised to what its response key
   depends on: a system request drops [ticket]; a case request's system
   is its case's, whatever the request said *)
type coords = {
  co_system : string;
  co_version : int;
  co_case : (string * int) option;  (** case id, ticket *)
}

type t = {
  cfg : config;
  key_tags : string list;
      (** the response key's fixed tail: checker tag, triage tag *)
  engine : Engine.Scheduler.t;  (** every system's; per-request stats *)
  books : (string, Semantics.Rulebook.t) Hashtbl.t;  (** per scope key *)
  keys : (coords, string) Hashtbl.t;  (** the key memo *)
  responses : (string, Protocol.summary) Hashtbl.t;  (** the verdict cache *)
  breaker : string Resilience.Kbreaker.t;
  mutable warm : (string * string) list;  (** per-snapshot load outcome *)
  served : int Atomic.t;
  cache_hits : int Atomic.t;
  shed : int Atomic.t;
  rejected : int Atomic.t;
  errors : int Atomic.t;
  stop : bool Atomic.t;
}

let scope = Event.scope "serve"

(* every daemon event carries the request correlation id (or "-" for
   lifecycle events) and the tenant, so multi-tenant logs are greppable
   per request *)
let event ?(id = "-") ?(tenant = "-") sev fmt =
  Format.kasprintf
    (fun msg ->
      Event.emit scope sev (fun () ->
          Printf.sprintf "req=%s tenant=%s %s" id tenant msg))
    fmt

let responses_path dir = Filename.concat dir "responses.snap"

(* The triage harness behind every tier the daemon serves (the driving
   test replayed under the concolic engine): part of the response key,
   so a tier computed by another harness never answers a request. *)
let triage_harness = "test-replay"

(* the summary record is marshalled raw, so its wire kind carries the
   protocol version: a snapshot written by an older (or newer) summary
   layout fails the kind check and degrades to a cold start instead of
   unmarshalling garbage.  It names the triage harness too: entries
   keyed under another harness's tag could never hit, so their snapshot
   starts cold rather than being reloaded and saved again *)
let responses_kind =
  Printf.sprintf "responses/v%d/%s" Protocol.version triage_harness

(* ------------------------------------------------------------------ *)
(* Warm start                                                          *)
(* ------------------------------------------------------------------ *)

let load_caches (t : t) (dir : string) : unit =
  let text =
    match Snapshot.load ~path:(responses_path dir) ~kind:responses_kind with
    | Error reason -> Printf.sprintf "cold: %s" reason
    | Ok (entries : (string * Protocol.summary) list) ->
        List.iter (fun (k, s) -> Hashtbl.replace t.responses k s) entries;
        Printf.sprintf "warm (%d entries)" (List.length entries)
  in
  event Event.Info "cache responses: %s" text;
  t.warm <- [ ("responses", text) ]

(* the engine runs the default checker, so its tag is fixed for the
   daemon's life; the triage harness is part of the key: a summary with
   tiers must never answer a request from a daemon running without
   triage (or with another harness), and vice versa *)
let key_tags_of (config : config) : string list =
  let triage_tag =
    match config.triage with
    | Some c when c.Triage.enabled -> "triage:" ^ triage_harness
    | Some _ | None -> "triage:off"
  in
  [
    Engine.Checker.config_tag
      Engine.Scheduler.default_config.Engine.Scheduler.checker;
    triage_tag;
  ]

let create ?(config = default_config) () : t =
  let t =
    {
      cfg = config;
      key_tags = key_tags_of config;
      engine =
        Engine.Scheduler.create
          ~config:
            {
              Engine.Scheduler.default_config with
              Engine.Scheduler.jobs = config.jobs;
            }
          ();
      books = Hashtbl.create 8;
      keys = Hashtbl.create 64;
      responses = Hashtbl.create 64;
      breaker =
        Resilience.Kbreaker.create ~threshold:config.breaker_threshold
          ~cooldown:config.breaker_cooldown ();
      warm = [];
      served = Atomic.make 0;
      cache_hits = Atomic.make 0;
      shed = Atomic.make 0;
      rejected = Atomic.make 0;
      errors = Atomic.make 0;
      stop = Atomic.make false;
    }
  in
  Option.iter (load_caches t) config.cache_dir;
  t

let config (t : t) = t.cfg

let warm_report (t : t) = t.warm

let response_cache_size (t : t) = Hashtbl.length t.responses

let key_memo_size (t : t) = Hashtbl.length t.keys

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let save (t : t) : int =
  match t.cfg.cache_dir with
  | None -> 0
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let responses =
        Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.responses []
        |> List.sort compare
      in
      match Snapshot.save ~path:(responses_path dir) ~kind:responses_kind responses with
      | Ok () ->
          let n = List.length responses in
          event Event.Info "cache responses: saved %d entries" n;
          n
      | Error e ->
          event Event.Warn "cache responses: save failed: %s" e;
          0

(* ------------------------------------------------------------------ *)
(* Request resolution                                                  *)
(* ------------------------------------------------------------------ *)

let book_for_system (t : t) (system : string) : Semantics.Rulebook.t =
  let key = "sys:" ^ system in
  match Hashtbl.find_opt t.books key with
  | Some b -> b
  | None ->
      let b =
        Lisa.System_scan.learn_system_book ~registry:t.cfg.registry system
      in
      Hashtbl.replace t.books key b;
      b

let book_for_case (t : t) (c : Corpus.Case.t) (which : int) :
    Semantics.Rulebook.t =
  let key = Printf.sprintf "case:%s:%d" c.Corpus.Case.case_id which in
  match Hashtbl.find_opt t.books key with
  | Some b -> b
  | None ->
      let outcome =
        Lisa.Pipeline.learn (Option.get (Corpus.Case.ticket c which))
      in
      let b =
        Semantics.Rulebook.of_rules ~system:c.Corpus.Case.system
          outcome.Lisa.Pipeline.accepted
      in
      Hashtbl.replace t.books key b;
      b

(* validation reads the registry's tables only: no source, no ticket *)
let coords_of (t : t) (req : Protocol.request) : (coords, string) result =
  let reg = t.cfg.registry in
  match req.Protocol.req_version with
  | None -> Error "missing \"version\" (target release)"
  | Some version
    when version < 0 || version > reg.Corpus.Registry.max_version ->
      Error
        (Printf.sprintf "version %d out of range 0..%d" version
           reg.Corpus.Registry.max_version)
  | Some version -> (
      match (req.Protocol.req_case, req.Protocol.req_system) with
      | Some case_id, _ -> (
          match Corpus.Registry.find reg case_id with
          | None -> Error (Printf.sprintf "unknown case %S" case_id)
          | Some c ->
              let n = List.length c.Corpus.Case.ticket_meta in
              let which = req.Protocol.req_ticket in
              if which < 0 || which >= n then
                Error
                  (Printf.sprintf "case %s has only %d ticket(s)" case_id n)
              else
                Ok
                  {
                    co_system = c.Corpus.Case.system;
                    co_version = version;
                    co_case = Some (case_id, which);
                  })
      | None, Some system ->
          if not (List.mem system reg.Corpus.Registry.systems) then
            Error
              (Printf.sprintf "unknown system %S (known: %s)" system
                 (String.concat ", " reg.Corpus.Registry.systems))
          else Ok { co_system = system; co_version = version; co_case = None }
      | None, None -> Error "request needs \"system\" or \"case\"")

type resolved = {
  rv_system : string;
  rv_version : int;
  rv_program : Minilang.Ast.program;
  rv_book : Semantics.Rulebook.t;
}

(* the expensive half, for validated coordinates only: assemble and
   parse the release, learn (or reuse) the book; may raise on a source
   that does not parse *)
let resolve (t : t) (co : coords) : resolved =
  let reg = t.cfg.registry in
  {
    rv_system = co.co_system;
    rv_version = co.co_version;
    rv_program =
      Corpus.Registry.program_of reg co.co_system ~version:co.co_version;
    rv_book =
      (match co.co_case with
      | None -> book_for_system t co.co_system
      | Some (case_id, which) ->
          book_for_case t
            (Option.get (Corpus.Registry.find reg case_id))
            which);
  }

(* the response-cache key: stable fingerprints only — program text,
   rulebook text, checker knobs, protocol version.  Nothing process- or
   schedule-local, so a persisted hit is sound across restarts. *)
let cache_key (t : t) (rv : resolved) : string =
  let book_fp =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map Semantics.Rule.to_string
               (Semantics.Rulebook.rules rv.rv_book))))
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          ([
             string_of_int Protocol.version;
             rv.rv_system;
             string_of_int rv.rv_version;
             Engine.Fingerprint.program rv.rv_program;
             book_fp;
           ]
          @ t.key_tags)))

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let op_name : Protocol.op -> string = function
  | Protocol.Enforce -> "enforce"
  | Protocol.Ping -> "ping"
  | Protocol.Stats -> "stats"
  | Protocol.Save -> "save"
  | Protocol.Shutdown -> "shutdown"

let counters (t : t) : (string * int) list =
  [
    ("served", Atomic.get t.served);
    ("cache_hits", Atomic.get t.cache_hits);
    ("shed", Atomic.get t.shed);
    ("breaker_rejected", Atomic.get t.rejected);
    ("errors", Atomic.get t.errors);
    ("response_cache", Hashtbl.length t.responses);
    ("tenant_trips", Resilience.Kbreaker.total_trips t.breaker);
    ("smt_memo", Smt.Memo.size ());
  ]

let fail (t : t) (req : Protocol.request) (message : string) : Protocol.response
    =
  let id = req.Protocol.req_id and tenant = req.Protocol.req_tenant in
  Atomic.incr t.errors;
  if Resilience.Kbreaker.failure t.breaker tenant then
    event ~id ~tenant Event.Error "tenant breaker opened (%d trips)"
      (Resilience.Kbreaker.trips t.breaker tenant);
  event ~id ~tenant Event.Warn "error: %s" message;
  Protocol.Error_resp { id; tenant; message }

(* the response key of validated coordinates, memoized: only the first
   request for them forces [rv] to fingerprint program and book *)
let key_of (t : t) (co : coords) (rv : resolved Lazy.t) : string =
  match Hashtbl.find_opt t.keys co with
  | Some key -> key
  | None ->
      let key = cache_key t (Lazy.force rv) in
      Hashtbl.replace t.keys co key;
      key

(* a response-cache miss: enforce, triage the findings, cache the
   verdict unless it is degraded *)
let enforce_uncached (t : t) ~(queue_ms : float) (req : Protocol.request)
    (key : string) (rv : resolved) : Protocol.response =
  let id = req.Protocol.req_id and tenant = req.Protocol.req_tenant in
  let s0 = Engine.Scheduler.stats t.engine in
  let t0 = Clock.now () in
  match Engine.Scheduler.enforce t.engine rv.rv_program rv.rv_book with
  | exception e -> fail t req (Printexc.to_string e)
  | reports ->
      let wall_ms = (Clock.now () -. t0) *. 1000. in
      let s1 = Engine.Scheduler.stats t.engine in
      let findings = Engine.Scheduler.finding_ids reports in
      let degraded = Engine.Scheduler.degraded_ids reports in
      (* witness-replay triage over the violating rules only:
         clean verdicts never pay for replay, and a triage-off
         daemon renders the v1-identical tier-less form *)
      let tiers =
        match t.cfg.triage with
        | Some tcfg when findings <> [] ->
            let violating =
              List.filter Engine.Checker.has_violations reports
            in
            Triage.rule_tiers
              (Triage.triage_reports ~config:tcfg rv.rv_program violating)
        | _ -> []
      in
      let summary =
        {
          Protocol.sum_verdict =
            (if findings = [] then "clean" else "violations");
          sum_findings = findings;
          sum_degraded = degraded;
          sum_tiers = tiers;
          sum_traces =
            List.fold_left
              (fun n (r : Engine.Checker.rule_report) ->
                n + List.length r.Engine.Checker.rep_traces)
              0 reports;
          sum_rules = Semantics.Rulebook.size rv.rv_book;
        }
      in
      (* degraded verdicts describe a bad moment, not the
         release: they are answered but never cached *)
      if degraded = [] then Hashtbl.replace t.responses key summary;
      Resilience.Kbreaker.success t.breaker tenant;
      Atomic.incr t.served;
      event ~id ~tenant Event.Info "%s v%d: %s (%d finding(s), %.0fms)"
        rv.rv_system rv.rv_version summary.Protocol.sum_verdict
        (List.length findings) wall_ms;
      Protocol.Ok_enforce
        {
          id;
          tenant;
          summary;
          cached = false;
          stats =
            {
              Protocol.rs_queue_ms = queue_ms;
              rs_run_ms = wall_ms;
              rs_jobs_run =
                s1.Engine.Stats.jobs_run - s0.Engine.Stats.jobs_run;
              rs_report_hits = 0;
              rs_smt_hits =
                s1.Engine.Stats.smt_hits - s0.Engine.Stats.smt_hits;
              rs_solver_calls =
                s1.Engine.Stats.solver_calls
                - s0.Engine.Stats.solver_calls;
            };
        }

let enforce_request (t : t) ~(queue_ms : float) (req : Protocol.request) :
    Protocol.response =
  let id = req.Protocol.req_id and tenant = req.Protocol.req_tenant in
  if not (Resilience.Kbreaker.proceed t.breaker tenant) then begin
    Atomic.incr t.rejected;
    event ~id ~tenant Event.Warn "rejected: tenant breaker open";
    Protocol.Rejected { id; tenant; reason = "breaker_open" }
  end
  else
    match coords_of t req with
    | Error msg -> fail t req msg
    | Ok co -> (
        (* resolution parses sources and learns books, so it may raise:
           that fails this request, never the worker *)
        let rv = lazy (resolve t co) in
        match
          let key = key_of t co rv in
          (key, Hashtbl.find_opt t.responses key)
        with
        | exception e -> fail t req (Printexc.to_string e)
        | _, Some summary ->
            Resilience.Kbreaker.success t.breaker tenant;
            Atomic.incr t.served;
            Atomic.incr t.cache_hits;
            event ~id ~tenant Event.Info
              "%s v%d: %s (warm response cache)" co.co_system co.co_version
              summary.Protocol.sum_verdict;
            Protocol.Ok_enforce
              {
                id;
                tenant;
                summary;
                cached = true;
                stats =
                  {
                    Protocol.rs_queue_ms = queue_ms;
                    rs_run_ms = 0.;
                    rs_jobs_run = 0;
                    rs_report_hits = 0;
                    rs_smt_hits = 0;
                    rs_solver_calls = 0;
                  };
              }
        | key, None -> (
            match Lazy.force rv with
            | exception e -> fail t req (Printexc.to_string e)
            | rv -> enforce_uncached t ~queue_ms req key rv))

let handle_timed (t : t) ~(queue_ms : float) (req : Protocol.request) :
    Protocol.response =
  let id = req.Protocol.req_id and tenant = req.Protocol.req_tenant in
  Trace.with_span ~cat:"serve"
    ~args:[ ("id", id); ("tenant", tenant); ("op", op_name req.Protocol.req_op) ]
    "serve.request"
  @@ fun () ->
  match req.Protocol.req_op with
  | Protocol.Enforce -> enforce_request t ~queue_ms req
  | Protocol.Ping -> Protocol.Ok_ping { id; tenant }
  | Protocol.Stats -> Protocol.Ok_stats { id; tenant; fields = counters t }
  | Protocol.Save -> Protocol.Ok_saved { id; tenant; entries = save t }
  | Protocol.Shutdown ->
      Atomic.set t.stop true;
      event ~id ~tenant Event.Info "shutdown requested";
      Protocol.Ok_shutdown { id; tenant }

let handle_request (t : t) (req : Protocol.request) : Protocol.response =
  handle_timed t ~queue_ms:0. req

(* a line that is not a request has no id or tenant to answer to, and
   no tenant breaker to count against *)
let unparseable (t : t) (message : string) : Protocol.response =
  Atomic.incr t.errors;
  event Event.Warn "unparseable request: %s" message;
  Protocol.Error_resp { id = ""; tenant = "default"; message }

let handle_line (t : t) (line : string) : Protocol.response =
  match Protocol.parse_request line with
  | Ok req -> handle_request t req
  | Error message -> unparseable t message

(* ------------------------------------------------------------------ *)
(* Queue pump (shared by the channel and socket servers)               *)
(* ------------------------------------------------------------------ *)

type job = {
  jb_req : Protocol.request;
  jb_reply : string -> unit;
  jb_enq : float;
}

let queue_counter (q : job Queue.t) =
  if Trace.enabled () then
    Trace.counter ~cat:"serve" "serve.queue"
      [
        ("depth", float_of_int (Queue.length q));
        ("shed", float_of_int (Queue.shed_count q));
      ]

let worker_loop (t : t) (q : job Queue.t) : unit =
  let rec go () =
    match Queue.pop q with
    | None -> ()
    | Some (_tenant, jb) ->
        queue_counter q;
        let queue_ms = (Clock.now () -. jb.jb_enq) *. 1000. in
        let resp = handle_timed t ~queue_ms jb.jb_req in
        jb.jb_reply (Protocol.render_response resp);
        go ()
  in
  go ()

(* parse one line and either answer immediately (parse error, shed) or
   enqueue for the worker; returns [true] when the accept loop should
   stop reading (a shutdown request was admitted) *)
let accept_line (t : t) (q : job Queue.t) ~(reply : string -> unit)
    (line : string) : bool =
  let line = String.trim line in
  if line = "" then false
  else
    match Protocol.parse_request line with
    | Error message ->
        reply (Protocol.render_response (unparseable t message));
        false
    | Ok req -> (
        let id = req.Protocol.req_id and tenant = req.Protocol.req_tenant in
        let jb = { jb_req = req; jb_reply = reply; jb_enq = Clock.now () } in
        match Queue.push q ~tenant jb with
        | Queue.Admitted ->
            queue_counter q;
            req.Protocol.req_op = Protocol.Shutdown
        | Queue.Shed depth ->
            Atomic.incr t.shed;
            queue_counter q;
            event ~id ~tenant Event.Warn
              "overloaded: admission queue full (depth %d), shedding" depth;
            reply
              (Protocol.render_response
                 (Protocol.Overloaded { id; tenant; depth }));
            false)

let serve_channels (t : t) (ic : in_channel) (oc : out_channel) : unit =
  let out_lock = Mutex.create () in
  let reply line =
    Mutex.lock out_lock;
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Mutex.unlock out_lock
  in
  let q : job Queue.t = Queue.create ~depth:t.cfg.queue_depth () in
  event Event.Info "listening on stdin (queue depth %d, jobs %d)"
    t.cfg.queue_depth t.cfg.jobs;
  let worker =
    if t.cfg.drain_after_eof then None
    else Some (Domain.spawn (fun () -> worker_loop t q))
  in
  let rec accept () =
    if not (Atomic.get t.stop) then
      match input_line ic with
      | exception End_of_file -> ()
      | line -> if not (accept_line t q ~reply line) then accept ()
  in
  accept ();
  Queue.close q;
  (match worker with
  | Some d -> Domain.join d
  | None -> worker_loop t q (* testing mode: drain inline, after EOF *));
  ignore (save t);
  event Event.Info "shutdown clean (%d served, %d shed)" (Atomic.get t.served)
    (Atomic.get t.shed)

(* ------------------------------------------------------------------ *)
(* Unix-socket server                                                  *)
(* ------------------------------------------------------------------ *)

let serve_socket (t : t) ~(path : string) : unit =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 16;
  let out_lock = Mutex.create () in
  let reply_to fd line =
    Mutex.lock out_lock;
    (try
       let msg = line ^ "\n" in
       ignore (Unix.write_substring fd msg 0 (String.length msg))
     with Unix.Unix_error _ -> () (* client went away; drop the reply *));
    Mutex.unlock out_lock
  in
  let q : job Queue.t = Queue.create ~depth:t.cfg.queue_depth () in
  let worker = Domain.spawn (fun () -> worker_loop t q) in
  let clients : (Unix.file_descr, Buffer.t) Hashtbl.t = Hashtbl.create 8 in
  let close_client fd =
    Hashtbl.remove clients fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let on_signal = Sys.Signal_handle (fun _ -> Atomic.set t.stop true) in
  let old_int = Sys.signal Sys.sigint on_signal in
  let old_term = Sys.signal Sys.sigterm on_signal in
  event Event.Info "listening on %s (queue depth %d, jobs %d)" path
    t.cfg.queue_depth t.cfg.jobs;
  (* complete lines of a client buffer, leaving any partial tail *)
  let drain_lines fd buf =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    let rec go start =
      match String.index_from_opt s start '\n' with
      | Some nl ->
          let line = String.sub s start (nl - start) in
          if accept_line t q ~reply:(reply_to fd) line then
            Atomic.set t.stop true;
          go (nl + 1)
      | None -> Buffer.add_substring buf s start (String.length s - start)
    in
    go 0
  in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      let fds = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
      (match Unix.select fds [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd = srv then (
                match Unix.accept srv with
                | client, _ -> Hashtbl.replace clients client (Buffer.create 256)
                | exception Unix.Unix_error _ -> ())
              else
                match Unix.read fd chunk 0 (Bytes.length chunk) with
                | 0 -> close_client fd
                | n ->
                    let buf = Hashtbl.find clients fd in
                    Buffer.add_subbytes buf chunk 0 n;
                    drain_lines fd buf
                | exception Unix.Unix_error _ -> close_client fd)
            readable);
      loop ()
    end
  in
  loop ();
  Queue.close q;
  Domain.join worker;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) clients;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term;
  ignore (save t);
  event Event.Info "shutdown clean (%d served, %d shed)" (Atomic.get t.served)
    (Atomic.get t.shed)
