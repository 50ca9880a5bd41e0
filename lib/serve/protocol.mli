(** The serve wire protocol: JSONL requests and responses (one JSON
    object per line) over stdin/stdout or a Unix socket.  See
    [lib/serve/README.md] for the full specification with example
    exchanges. *)

(** Bumped whenever the wire or cache-entry format changes; baked into
    response-cache keys so stale semantics never serve a new client. *)
val version : int

type op =
  | Enforce  (** run the enforcement engine (the default) *)
  | Ping
  | Stats  (** server counters *)
  | Save  (** persist warm caches now *)
  | Shutdown  (** drain and exit cleanly *)

type request = {
  req_id : string;  (** client correlation id, echoed on every response *)
  req_tenant : string;  (** fairness/breaker unit; default ["default"] *)
  req_op : op;
  req_system : string option;  (** subject system, e.g. ["zookeeper"] *)
  req_case : string option;
      (** corpus case id: scope the rulebook to this case's ticket
          bundle (description + discussion + diff + regression tests)
          instead of the whole system book *)
  req_ticket : int;  (** which ticket of the case (default 0) *)
  req_version : int option;  (** target release to enforce against *)
}

(** The release-verdict part of a response — everything the
    warm-vs-cold byte-identity gate compares (no timings, no cache
    provenance). *)
type summary = {
  sum_verdict : string;  (** "clean" or "violations" *)
  sum_findings : string list;  (** violating rule ids, rulebook order *)
  sum_degraded : string list;  (** rule ids with lossy reports *)
  sum_traces : int;  (** traces judged *)
  sum_rules : int;  (** rulebook size enforced *)
  sum_tiers : (string * string) list;
      (** v2: witness-replay tier per violating rule id ("witnessed",
          "consistent" or "likely-fp"); [[]] when triage did not run —
          and then the wire form is byte-identical to v1 *)
}

type run_stats = {
  rs_queue_ms : float;  (** admission-queue wait *)
  rs_run_ms : float;  (** enforcement wall time *)
  rs_jobs_run : int;
  rs_report_hits : int;
      (** always 0: the engine keeps no report cache.  Kept so the wire
          form stays the same *)
  rs_smt_hits : int;
  rs_solver_calls : int;
}

type response =
  | Ok_enforce of {
      id : string;
      tenant : string;
      summary : summary;
      cached : bool;  (** served from the warm response cache *)
      stats : run_stats;
    }
  | Ok_ping of { id : string; tenant : string }
  | Ok_stats of { id : string; tenant : string; fields : (string * int) list }
  | Ok_saved of { id : string; tenant : string; entries : int }
  | Ok_shutdown of { id : string; tenant : string }
  | Overloaded of { id : string; tenant : string; depth : int }
      (** shed at admission: queue full; retry later *)
  | Rejected of { id : string; tenant : string; reason : string }
      (** refused before running, e.g. ["breaker_open"] *)
  | Error_resp of { id : string; tenant : string; message : string }

val parse_request : string -> (request, string) result

(** Parse a rendered response line back into a {!response}.  Tolerant
    like {!parse_request}: unknown fields are ignored and missing
    optional fields default — in particular a v1 (tier-less) enforce
    payload parses with [sum_tiers = []], so new clients interoperate
    with old servers. *)
val parse_response : string -> (response, string) result

(** One compact JSON object, no trailing newline; field order is fixed
    so identical verdicts render byte-identically. *)
val render_response : response -> string

val response_id : response -> string

(** Stable comparison key for the byte-identity gates: id, status, and
    the full {!summary} — deliberately excluding timings and the
    [cached] flag, which legitimately differ between cold and warm. *)
val verdict_signature : response -> string
