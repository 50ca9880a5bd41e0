(** Satisfiability, validity, and the paper's trace checks.

    A small DPLL(T): boolean backtracking over canonical atoms with
    three-valued early evaluation, pruned by the theory solver on every
    partial assignment.  Complete for the checker-formula fragment.

    The search core runs on a compiled form of the formula — an
    id-indexed assignment array over the canonical atoms, two-watched-
    literal unit propagation over a clausal view of the NNF, and a
    process-global store of conflict literal-sets learned from
    {!Theory.consistent} failures.  All accelerations are
    result-preserving: verdicts and models are byte-identical to the
    plain backtracking search.  An assumption {!context} adds
    [push]/[pop] of literal assertions and {!solve_under_assumptions}
    for incremental solving over shared path-condition prefixes (see
    {!Pctrie} and [lib/smt/README.md]). *)

type verdict =
  | Sat of (Formula.atom * bool) list
  | Unsat
  | Unknown of string
      (** undecided: node budget exhausted, injected fault, or open
          circuit breaker; the payload records why *)

val verdict_is_sat : verdict -> bool

(** DPLL search-node budget used when [solve] is not given one
    explicitly.  Defaults to 200k nodes — far above the checker-formula
    fragment, so [Unknown] only appears under adversarial formulas or
    injected faults. *)
val default_node_budget : unit -> int

val set_default_node_budget : int -> unit

(** {2 Theory-consistency memo knobs (diagnostics/tests)} *)

val theory_memo_size : unit -> int

(** Capacity at which the memo sheds half its entries (epoch halving;
    clamped to >= 2). *)
val set_theory_memo_max : int -> unit

(** Clear the theory-consistency memo (benchmarks use this to measure
    genuinely cold, from-scratch solving). *)
val reset_theory_memo : unit -> unit

(** {2 Conflict learning}

    Theory conflicts ([Theory.consistent] returning false on a definite
    literal set) are minimized with {!Theory.conflict_core} and recorded
    globally; any later partial assignment containing a learned set is
    refuted without a theory call.  Learning is result-preserving —
    it changes the cost of a verdict, never the verdict or the model —
    and [Unknown]/degraded results are never learned.

    Publication is batched: each domain buffers fresh conflicts locally
    ([Domain.DLS]) and takes the store lock once per batch — at the end
    of a solve, at a context pop, at a buffer-size threshold, or via
    {!flush_learned}.  A domain's own unpublished clauses still prune
    its search (the store probe falls through to the pending buffer),
    so batching is result-preserving too; under a serial schedule the
    visible clause set matches immediate publication step for step. *)

(** Conflict sets learned ([smt.learned]). *)
val learned_conflicts : Telemetry.Metrics.counter

val reset_learned : unit -> unit

(** Publish the calling domain's pending learned clauses now (one lock
    hold for the whole batch).  The engine's pool calls this as each
    worker domain retires so no clause is stranded in a dead domain's
    buffer. *)
val flush_learned : unit -> unit

(** Learned clauses published through batch flushes
    ([smt.learned.batched]). *)
val learned_batched : Telemetry.Metrics.counter

(** Toggle conflict learning (tests pin that verdicts are identical with
    learning disabled).  Enabled by default. *)
val set_learning_enabled : bool -> unit

val learning_enabled : unit -> bool

(** {2 Incremental-core counters}

    Registry counters ([smt.assume.push], [smt.assume.pop],
    [smt.propagations]); the engine's stats recorder reads their deltas
    per enforcement. *)

val assume_pushes : Telemetry.Metrics.counter

val assume_pops : Telemetry.Metrics.counter

(** Literals implied by two-watched-literal unit propagation. *)
val propagations : Telemetry.Metrics.counter

(** {2 Pre-solver fast path}

    A ladder of sound Unsat filters run before the DPLL(T) search:
    {!Absdom.refute} (interval/constant/null abstract evaluation), a
    root-BCP-only check over the clausal NNF view, and — in the
    checker's trie walk — subsumption of whole subtrees under a prefix
    already proved inconsistent.  Every rung is result-preserving (an
    Unsat short-circuit carries no payload), so the toggle changes
    query cost, never a verdict, and is deliberately absent from every
    cache key.  Enabled by default; the bench flips it off to measure
    the saved full solves. *)

val set_fastpath_enabled : bool -> unit

val fastpath_enabled : unit -> bool

(** Total full DPLL(T) searches avoided ([smt.fastpath.saved], the sum
    of the per-rung counters [smt.fastpath.interval], [smt.fastpath.bcp]
    and [smt.fastpath.subsumed]). *)
val fastpath_saved : Telemetry.Metrics.counter

(** Full DPLL(T) searches actually run.  The bench's reduction metric is
    this counter's delta with the fast path on vs off. *)
val full_solve_count : unit -> int

(** Record one trie-subtree subsumption (called by [Engine.Checker]). *)
val note_trie_subsumed : unit -> unit

(** Does root BCP alone refute the formula?  Test hook for the qcheck
    soundness suite; the solve path folds this into its fast path. *)
val bcp_refutes : Formula.t -> bool

(** Decide satisfiability.  A [Sat] model assigns a sign to each canonical
    atom of the (simplified) formula.  The search visits at most
    [node_budget] nodes and answers [Unknown] past it; injected faults
    and an open solver breaker also answer [Unknown] (or raise
    {!Resilience.Fault.Injected} for crash/transient kinds). *)
val solve : ?node_budget:int -> Formula.t -> verdict

(** {1 Assumption contexts (incremental solving)}

    A persistent stack of asserted formulas for solving many queries
    that share a common prefix — the engine's path-condition trie walk
    pushes each shared pc fact exactly once.  [push] decomposes the
    formula's literal conjuncts and checks theory consistency of the
    whole prefix a single time, seeding the global theory memo and the
    learned-conflict store; queries under the prefix then hit those
    caches instead of re-deriving its consequences.  The caches are
    result-preserving, so verdicts and models are byte-identical to
    one-shot solving of the full conjunction. *)

type context

val create_context : unit -> context

(** Assert a formula's literal conjuncts on top of the stack. *)
val push : context -> Formula.t -> unit

(** Retract the most recent {!push}.
    @raise Invalid_argument on an empty stack. *)
val pop : context -> unit

val assumption_depth : context -> int

(** The pushed formulas, outermost first. *)
val assumptions : context -> Formula.t list

(** False once the asserted prefix is known inconsistent (boolean or
    theory); any formula entailing the prefix is then unsat without a
    search. *)
val assumptions_consistent : context -> bool

(** [solve_under_assumptions ctx f] decides [assumptions ctx /\ f]:
    builds the conjunction and defers to {!solve_in_context}.  Agrees
    with [solve (conj (assumptions ctx @ [f]))] — same verdict, same
    model — for every split of a conjunction into prefix and suffix. *)
val solve_under_assumptions : ?node_budget:int -> context -> Formula.t -> verdict

(** [solve_in_context ctx f] is {!solve} of [f] reusing the context's
    incremental state.  Sound only when [f] entails the context's
    assumptions (the caller passes the full conjunction; the context
    contributes warm caches and the inconsistent-prefix shortcut). *)
val solve_in_context : ?node_budget:int -> context -> Formula.t -> verdict

val is_sat : Formula.t -> bool

(** [Unknown] is conservatively not unsat. *)
val is_unsat : Formula.t -> bool

val is_valid : Formula.t -> bool

(** [entails pc c]: every state satisfying [pc] satisfies [c]. *)
val entails : Formula.t -> Formula.t -> bool

val equivalent : Formula.t -> Formula.t -> bool

(** {1 Trace checks (paper §3.2)} *)

type trace_check =
  | Verified  (** the path condition implies the checker formula *)
  | Violation of (Formula.atom * bool) list
      (** a state admitted by the path that violates the semantics *)
  | Undecided of string
      (** the solver could not decide; the reason degrades the rule's
          report instead of killing the run *)

(** The complement check: a trace with path condition [pc] violates the
    semantic with checker formula [checker] iff [pc /\ !checker] is
    satisfiable.  Under-constrained variables ("missing checks") leave
    room for the complement, which is exactly how the paper catches the
    missing [s.ttl > 0] example. *)
val check_trace : pc:Formula.t -> checker:Formula.t -> trace_check

(** The naive direct check (ablation E8): flags a trace only when its path
    condition outright contradicts the checker formula; traces that merely
    miss a check slip through. *)
val check_trace_direct : pc:Formula.t -> checker:Formula.t -> trace_check

(** Render a model as a human-readable conjunction. *)
val model_to_string : (Formula.atom * bool) list -> string
