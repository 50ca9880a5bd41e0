(** Global SMT verdict cache wrapping {!Solver}.

    Keyed by the interned id of the simplified formula: formulas are
    hash-consed, so equal keys denote equal formulas and reusing a
    verdict is always sound — and the hit path allocates no rendering.

    One mutex-protected table of at most 2^17 entries serves every
    domain; it never stores [Unknown].  Exactly one hit or miss is
    recorded per enabled query, so counter totals (and the engine
    statistics derived from them) are the same at any jobs count.
    Disabled by default — when disabled every call passes straight
    through to {!Solver}. *)

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

(** {1 Snapshot / restore}

    The daemon ([lib/serve]) persists the verdict cache across restarts.
    Entries expose the simplified formula alongside its verdict so the
    persistence layer can convert to {!Wire} forms — interned values are
    process-local and must be rebuilt through the smart constructors on
    load. *)

(** Every cached (simplified formula, verdict) pair, unordered. *)
val entries : unit -> (Formula.t * Solver.verdict) list

(** Seed the cache from re-interned entries; skips [Unknown] verdicts
    and keys already present, never evicts (entries past capacity are
    dropped).  Takes the lock once for the whole batch.  Returns
    entries added. *)
val restore : (Formula.t * Solver.verdict) list -> int

(** {1 Counters} *)

val hits : Telemetry.Metrics.counter

val misses : Telemetry.Metrics.counter

(** Number of formulas currently cached. *)
val size : unit -> int

(** Clear the store and zero the hit/miss counters. *)
val reset : unit -> unit
