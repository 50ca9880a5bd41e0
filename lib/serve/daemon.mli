(** [lisa serve] — the enforcement engine as a long-running service.

    One daemon owns: a lazily-built {!Engine.Scheduler} per subject
    system (hash-cons tables, report cache, {!Smt.Memo}, and the
    solver's theory memo all stay warm across requests), a
    fingerprint-keyed response cache (optionally persisted through
    {!Snapshot}) behind a memo from request coordinates to cache key,
    so a hit parses nothing; a bounded fair admission {!Queue}; and a
    per-tenant {!Resilience.Kbreaker} so one pathological stream
    degrades only its own tenant.  See [lib/serve/README.md] for protocol, backpressure,
    and fairness semantics.

    All daemon logging goes through the [Telemetry.Event] scope
    ["serve"], every message carrying a [req=<id> tenant=<t>]
    correlation prefix; requests run under a [serve.request] span and
    the queue is sampled on the [serve.queue] counter series. *)

type config = {
  jobs : int;  (** engine worker domains per request *)
  queue_depth : int;  (** admission bound; beyond it requests shed *)
  breaker_threshold : int;  (** consecutive failures to open a tenant *)
  breaker_cooldown : int;  (** tenant requests skipped while open *)
  cache_dir : string option;  (** snapshot directory; [None] = no disk *)
  drain_after_eof : bool;
      (** testing mode for {!serve_channels}: admit the whole input
          stream before the worker starts, so admission order — and
          which request sheds — is deterministic *)
  triage : Triage.config option;
      (** witness-replay triage over violating rules; the tier per rule
          id lands in the enforce summary's [sum_tiers].  [None] (or a
          disabled config) renders the v1-identical tier-less wire form.
          On by default: replay only runs when there are findings, so
          clean verdicts pay nothing. *)
  registry : Corpus.Registry.t;
      (** the corpus the daemon serves: case lookups, system assembly
          and learned books all resolve against this value (default the
          builtin corpus) *)
}

val default_config : config

type t

(** Create the daemon; when [cache_dir] is set, warm the response cache
    and the {!Smt.Memo} from its snapshots (any unreadable snapshot is
    reported through {!warm_report} and falls back to a cold start —
    never an error). *)
val create : ?config:config -> unit -> t

val config : t -> config

(** Per-cache load outcome, e.g. [("responses", "warm (12 entries)");
    ("smt-memo", "cold: digest mismatch")].  Empty without a cache dir. *)
val warm_report : t -> (string * string) list

(** Parse one JSONL line and serve it (parse failures, and requests
    whose sources fail to parse or learn, become [error] responses).  Bypasses the admission queue — this is the direct
    entry point benchmarks and tests drive. *)
val handle_line : t -> string -> Protocol.response

val handle_request : t -> Protocol.request -> Protocol.response

(** Persist the response cache and SMT verdict memo to [cache_dir]
    (no-op returning 0 without one).  Returns entries written. *)
val save : t -> int

(** Server counters: served, cache_hits, shed, breaker_rejected,
    errors, response_cache entries, breaker trips. *)
val counters : t -> (string * int) list

val response_cache_size : t -> int

(** Entries in the key memo (request coordinates → response-cache key).
    Bounded by (systems + Σ tickets) × (max_version + 1) of the
    registry; only requests that resolved and keyed successfully add
    one. *)
val key_memo_size : t -> int

(** Serve JSONL over channels (stdin/stdout mode): accept loop on the
    calling domain, one worker domain draining the queue.  Returns
    after EOF or a [shutdown] request, once the queue is drained and —
    with a cache dir — snapshots are saved. *)
val serve_channels : t -> in_channel -> out_channel -> unit

(** Serve JSONL over a Unix domain socket at [path] (created, replacing
    any stale file; removed on exit).  Multiple concurrent clients are
    multiplexed with [select]; runs until a [shutdown] request or
    SIGINT/SIGTERM. *)
val serve_socket : t -> path:string -> unit
