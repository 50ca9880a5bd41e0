(** Satisfiability, validity, and the paper's trace checks.

    A small DPLL(T): boolean backtracking over canonical atoms with
    three-valued early evaluation, pruned by the theory solver on every
    partial assignment.  Complete for the checker-formula fragment.  The
    search runs on a compiled form of the formula: an id-indexed
    assignment array over the canonical atoms (see [lib/smt/README.md]). *)

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

(** Full DPLL(T) searches actually run ([smt.full_solves]): every
    {!solve} whose simplified formula is not [True] or [False]. *)
val full_solve_count : unit -> int

(** Decide satisfiability.  A [Sat] model assigns a sign to each canonical
    atom of the (simplified) formula.  The search visits at most
    [node_budget] nodes (default {!default_node_budget}) and answers
    [Unknown] past it.  Every search spends budget: only a formula that
    simplifies to [True] or [False] is decided without one. *)
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
