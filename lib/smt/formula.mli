(** Quantifier-free checker formulas over implementation-local predicates.

    This is the condition language of low-level semantics (paper §3.1):
    conjunctions/disjunctions of state relations ([v = c]), null-ness
    ([s != null]), boolean observers ([s.closing == false]) and integer
    bounds ([s.ttl > 0]).  Variables are dotted state paths such as
    ["Session.closing"].

    Terms and formulas are {e hash-consed}: construction goes through the
    smart constructors below, which return maximally shared nodes with a
    per-node unique id and a precomputed structural hash.  Consequently
    physical equality coincides with structural equality, and
    {!equal}/{!hash}/{!compare} are O(1).  The node views stay
    pattern-matchable ([private] records expose [f_node]/[t_node]), so
    consumers deconstruct exactly as before but cannot bypass interning. *)

(** Binary relations between terms. *)
type rel = Req | Rneq | Rlt | Rle | Rgt | Rge

(** Interned term: match on {!term_view} (or the [t_node] field).
    [t_id] is unique per structure for the process lifetime; [t_hash] is
    the precomputed structural hash (schedule-independent). *)
type term = private { t_node : term_node; t_id : int; t_hash : int }

(** Terms: flat — a state variable or a constant. *)
and term_node =
  | T_var of string  (** a state variable, e.g. ["s.ttl"] *)
  | T_int of int
  | T_bool of bool
  | T_str of string
  | T_null

(** Atoms are plain records over interned terms (cheap to rebuild with
    [{ a with rel = ... }]); atom equality is O(1) because the terms are
    shared. *)
type atom = { rel : rel; lhs : term; rhs : term }

(** Interned formula: match on {!view} (or the [f_node] field). *)
type t = private { f_node : f_node; f_id : int; f_hash : int }

and f_node =
  | True
  | False
  | Atom of atom
  | Not of t
  | And of t list  (** always >= 2 conjuncts; built by {!conj} *)
  | Or of t list  (** always >= 2 disjuncts; built by {!disj} *)

(** {1 Constructors} *)

val tvar : string -> term

val tint : int -> term

val tbool : bool -> term

val tstr : string -> term

val tnull : term

(** The interned [True] / [False] nodes. *)
val tru : t

val fls : t

val atom : rel -> term -> term -> t

val eq : term -> term -> t

val neq : term -> term -> t

val lt : term -> term -> t

val le : term -> term -> t

val gt : term -> term -> t

val ge : term -> term -> t

(** Boolean state variable asserted true: [bvar x] is [x == true]. *)
val bvar : string -> t

(** N-ary conjunction; [conj []] is {!tru}, singletons are unwrapped. *)
val conj : t list -> t

(** N-ary disjunction; [disj []] is {!fls}. *)
val disj : t list -> t

val negate : t -> t

(** {1 Identity}

    Sound because of maximal sharing: equal structure ⇔ same node. *)

val view : t -> f_node

val term_view : term -> term_node

(** Unique per structure within this process; never reused.  Ids depend
    on interning order (and hence scheduling under [--jobs N]) — key
    in-process tables with them, never order output by them. *)
val id : t -> int

val term_id : term -> int

(** O(1): physical equality. *)
val equal : t -> t -> bool

(** O(1): the precomputed structural hash (schedule-independent). *)
val hash : t -> int

(** O(1): id order.  In-process use only (see {!id}). *)
val compare : t -> t -> int

(** {1 Structure} *)

(** O(1): physical equality. *)
val term_equal : term -> term -> bool

(** The relation satisfied exactly when the argument is not. *)
val negate_rel : rel -> rel

(** Canonical form: [>]/[>=] rewritten to [<]/[<=] by swapping; symmetric
    relations get sorted operands.  Canonical atoms are the identity used
    by the DPLL abstraction. *)
val canon_atom : atom -> atom

(** All distinct canonical atoms, in first-occurrence order.  Memoized on
    the interned node; the order is structural and schedule-independent. *)
val atoms : t -> atom list

(** Free state variables, in first-occurrence order. *)
val variables : t -> string list

(** {1 Ground evaluation} (used to cross-check the solver in tests) *)

type value = V_int of int | V_bool of bool | V_str of string | V_null

(** [None] when a variable is unbound or an order atom compares
    non-integers. *)
val eval : (string * value) list -> t -> bool option

(** {1 Printing} *)

val term_to_string : term -> string

val rel_to_string : rel -> string

val atom_to_string : atom -> string

val to_string : t -> string


(** {1 Normal forms} *)

(** Negation normal form; the result contains no [Not] (negations are
    folded into atom relations).  Memoized on the formula id. *)
val nnf : t -> t

(** Semantics-preserving simplification: constant folding, flattening,
    duplicate removal, complementary-literal detection.  Memoized on the
    formula id. *)
val simplify : t -> t

(** {1 Intern-table statistics} *)

(** Live interned nodes over the term, formula, and string tables (the
    [core.intern.size] gauge; [core.intern.hits] and [core.intern.misses]
    are its siblings). *)
val intern_size : unit -> int
