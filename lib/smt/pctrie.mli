(** Path-condition trie: group trace checks by shared pc prefixes.

    Children are keyed by {!Formula.id} (formulas are hash-consed, so an
    id names one formula for the process lifetime): insertion is O(1)
    per pc element, and two path conditions share trie nodes exactly
    when they share a prefix of interned facts.  The engine's checker
    inserts every hit's decision-ordered pc snapshot, then walks the
    trie once with a {!Solver.context} — each shared prefix is pushed
    exactly once and each leaf decides only its own suffix.  Node and
    sharing totals are the process counters [smt.trie.nodes] and
    [smt.trie.shared]. *)

type 'a t

val create : unit -> 'a t

(** [add t ~pc payload] routes [payload] to the node reached by [pc]
    (the hit's pc snapshot, outermost decision first). *)
val add : 'a t -> pc:Formula.t list -> 'a -> unit

(** Deterministic depth-first walk: [enter f] when descending an edge
    decides whether to descend, [leaf] runs for each payload at a
    visited node (insertion order, before the node's children), [leave f]
    when ascending back over the edge.  Callers needing input-order
    results carry an index in the payload.

    Answering [false] from [enter] subsumes the node's whole subtree:
    every payload below it is handed to [pruned] — own leaves first,
    then descendants, in the order an unpruned walk would visit them —
    with no further [enter]/[leave] calls; the refused node's own
    [leave] still runs so a caller using an assumption context pops what
    [enter] pushed.  The checker uses this to answer every query under a
    prefix already proved Unsat without touching the solver. *)
val walk_pruned :
  'a t ->
  enter:(Formula.t -> bool) ->
  leave:(Formula.t -> unit) ->
  leaf:('a -> unit) ->
  pruned:('a -> unit) ->
  unit
