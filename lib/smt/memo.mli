(** Global SMT verdict cache wrapping {!Solver}.

    Keyed by the interned id of the simplified formula: formulas are
    hash-consed, so equal keys denote equal formulas and reusing a
    verdict is always sound — and the hit path allocates no rendering.

    One mutex-protected table of at most 2^17 entries serves every
    domain; it never stores [Unknown].  Exactly one hit or miss is
    recorded per enabled query, so counter totals (and the engine
    statistics derived from them) are the same at any jobs count.
    Enabled by default — when disabled every call passes straight
    through to {!Solver}. *)

(** Turn the cache on or off (default: on). *)
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

(** {1 Counters} *)

val hits : Telemetry.Metrics.counter

val misses : Telemetry.Metrics.counter

(** Number of formulas currently cached. *)
val size : unit -> int

(** Clear the store and zero the hit/miss counters. *)
val reset : unit -> unit
