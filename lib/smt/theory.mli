(** Theory solver: consistency of a conjunction of literals.

    Sound and complete for the checker-formula fragment: flat-term
    equalities/disequalities over all sorts (union-find), integer order
    constraints (difference bounds with a Floyd–Warshall closure), and
    boolean finite-domain reasoning.  Ill-sorted order constraints (e.g.
    ordering strings) make the set inconsistent. *)

type lit = { atom : Formula.atom; sign : bool }

(** [lit sign atom]: the literal [atom] ([sign = true]) or its negation. *)
val lit : bool -> Formula.atom -> lit

(** [consistent lits] decides whether the conjunction of [lits] has a
    model. *)
val consistent : lit list -> bool

(** The atoms of a formula that order a bool, string or null constant
    (e.g. [x < "a"], [null < y]).  Such a formula is ill-sorted: every
    conjunction holding one of its atoms, in either polarity, is
    inconsistent, so a complement check over it proves nothing. *)
val ill_sorted : Formula.t -> Formula.atom list

(** One valuation of the variables of [lits] under which every literal
    holds (ints within their difference bounds, every value clear of
    the classes it must differ from, found by a bounded depth-first
    search over a few candidates per equality class): [None] when
    [lits] is inconsistent or the search finds none.  Not re-checked
    here: a caller that needs certainty evaluates its formula under the
    valuation, as triage's witness does. *)
val valuation : lit list -> (string * Formula.value) list option
