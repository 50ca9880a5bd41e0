(** Sound abstract pre-solver: interval + constant + null/not-null
    evaluation over interned formulas.

    The first rung of the solver's fast-path ladder (see
    [lib/smt/README.md]).  Facts are derived from a formula's top-level
    literal conjuncts only — every derivation and refutation rule
    mirrors a check the DPLL(T) theory layer enforces, so {!refute}
    [f = true] implies the solver answers [Unsat] (or would answer it
    with an unlimited node budget).  [false] is always allowed; the
    fast path is a filter, never an oracle.  Results are memoized on
    the simplified formula's hash-cons id in a bounded table shared
    across domains. *)

(** [true] iff the abstract domain proves the formula unsatisfiable.
    Memoized; this is what the solver's fast path calls. *)
val refute : Formula.t -> bool

(** Entries in the refutation memo (diagnostics). *)
val memo_size : unit -> int

val reset_memo : unit -> unit
