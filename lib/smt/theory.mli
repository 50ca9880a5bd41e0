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
