(** Satisfiability, validity, and the paper's trace checks.

    A small DPLL(T): boolean backtracking over canonical atoms with
    three-valued early evaluation, pruned by the theory solver on every
    partial assignment.  Complete for the checker-formula fragment.

    The search core runs on a compiled form of the formula — an
    id-indexed assignment array over the canonical atoms and
    two-watched-literal unit propagation over a clausal view of the
    NNF.  Both accelerations are result-preserving: verdicts and models
    are byte-identical to the plain backtracking search (see
    [lib/smt/README.md]). *)

type verdict =
  | Sat of (Formula.atom * bool) list
  | Unsat
  | Unknown of string
      (** undecided: the node budget ran out; the payload records it *)

val verdict_is_sat : verdict -> bool

(** DPLL search-node budget used when [solve] is not given one
    explicitly.  Defaults to 200k nodes — far above the checker-formula
    fragment, so [Unknown] only appears under adversarial formulas or a
    lowered budget (the chaos suite runs at 1–3 nodes). *)
val default_node_budget : unit -> int

val set_default_node_budget : int -> unit

(** {2 Theory-consistency memo knobs (diagnostics/tests)} *)

val theory_memo_size : unit -> int

(** Capacity at which the memo sheds half its entries (epoch halving;
    clamped to >= 2). *)
val set_theory_memo_max : int -> unit

(** Clear the theory-consistency memo (tests use this to count solver
    work from a cold start). *)
val reset_theory_memo : unit -> unit

(** {2 Pre-solver fast path}

    A ladder of sound Unsat filters run before the DPLL(T) search:
    {!Absdom.refute} (interval/constant/null abstract evaluation), then
    a root-BCP-only check over the clausal NNF view.  Both rungs are
    result-preserving (an Unsat short-circuit carries no payload), so
    the toggle changes query cost, never a verdict, and is deliberately
    absent from every cache key.  Enabled by default; turning it off
    measures the full solves it saves. *)

val set_fastpath_enabled : bool -> unit

val fastpath_enabled : unit -> bool

(** Total full DPLL(T) searches avoided ([smt.fastpath.saved], the sum
    of the per-rung counters [smt.fastpath.interval] and
    [smt.fastpath.bcp]). *)
val fastpath_saved : Telemetry.Metrics.counter

(** Full DPLL(T) searches actually run ([smt.full_solves]); the fast
    path's reduction is this counter's delta with it on vs off. *)
val full_solve_count : unit -> int

(** Does root BCP alone refute the formula?  Test hook for the qcheck
    soundness suite; the solve path folds this into its fast path. *)
val bcp_refutes : Formula.t -> bool

(** Decide satisfiability.  A [Sat] model assigns a sign to each canonical
    atom of the (simplified) formula.  The search visits at most
    [node_budget] nodes (default {!default_node_budget}) and answers
    [Unknown] past it.  The fast-path rungs run before the search and
    spend no budget, so a formula they refute is [Unsat] at any budget
    while the same formula with the fast path off may be [Unknown]. *)
val solve : ?node_budget:int -> Formula.t -> verdict

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
