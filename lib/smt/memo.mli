(** Global SMT verdict cache wrapping {!Solver}.

    Keyed by the interned id of the simplified formula: formulas are
    hash-consed, so equal keys denote equal formulas and reusing a
    verdict is always sound — and the hit path allocates no rendering.

    The store is two-level: each domain keeps a bounded front cache in
    [Domain.DLS] (a warm hit takes zero locks), spilling to a
    process-global store sharded 16 ways by key, so worker domains only
    contend on a shard mutex for cold formulas that hash alike.
    Exactly one hit or miss is recorded per enabled query
    ({!local_hits} is a subset of {!hits}), so counter totals — and the
    engine statistics derived from them — match the historic
    single-mutex design at any jobs count.  Disabled by default — when
    disabled every call passes straight through to {!Solver}. *)

(** Turn the cache on or off (default: off). *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Like {!Solver.solve}, consulting the cache when enabled.  Verdicts
    are deterministic functions of the formula, so cached and uncached
    runs agree (see the qcheck property in [test/test_engine.ml]). *)
val solve : Formula.t -> Solver.verdict

(** Cached complement check; contract of {!Solver.check_trace}. *)
val check_trace : pc:Formula.t -> checker:Formula.t -> Solver.trace_check

(** Cached direct check; contract of {!Solver.check_trace_direct}. *)
val check_trace_direct :
  pc:Formula.t -> checker:Formula.t -> Solver.trace_check

(** {1 Context-aware (trie-driven) checks}

    Same cache keys and verdicts as the plain checks — the assumption
    context only makes cache misses cheaper by reusing the pc prefix the
    trie walk has already asserted.  The caller guarantees the context's
    assumptions conjoin to [pc].  [Unknown] is never cached, exactly as
    for the plain entry points. *)

val check_trace_in :
  Solver.context -> pc:Formula.t -> checker:Formula.t -> Solver.trace_check

val check_trace_direct_in :
  Solver.context -> pc:Formula.t -> checker:Formula.t -> Solver.trace_check

(** {1 Snapshot / restore}

    The daemon ([lib/serve]) persists the verdict cache across restarts.
    Entries expose the simplified formula alongside its verdict so the
    persistence layer can convert to {!Wire} forms — interned values are
    process-local and must be rebuilt through the smart constructors on
    load. *)

(** Every cached (simplified formula, verdict) pair, unordered. *)
val entries : unit -> (Formula.t * Solver.verdict) list

(** Seed the cache from re-interned entries; skips [Unknown] verdicts
    and keys already present, never evicts.  Entries are grouped by
    shard so each shard lock is taken once per batch, not once per
    entry.  Returns entries added. *)
val restore : (Formula.t * Solver.verdict) list -> int

(** {1 Counters} *)

val hits : Telemetry.Metrics.counter

val misses : Telemetry.Metrics.counter

(** Queries answered by the calling side's domain-local front cache
    (zero-lock hits); a subset of {!hits}. *)
val local_hits : Telemetry.Metrics.counter

(** Domain-local front-cache resets forced by the per-domain cap —
    eviction pressure. *)
val local_evictions : Telemetry.Metrics.counter

(** Number of formulas currently cached in the global store. *)
val size : unit -> int

(** Clear the global store, zero the counters, and lazily invalidate
    every domain's front cache (epoch bump — a domain drops its local
    table on its next query). *)
val reset : unit -> unit

(** Eagerly create (or epoch-sync) the calling domain's front cache;
    the engine's worker pool calls this at domain start. *)
val init_local : unit -> unit
