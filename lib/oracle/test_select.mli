(** RAG-style test selection (§3.2): pick, for each execution path, the
    existing tests most likely to drive it, by similarity search over test
    embeddings. *)

type selection = {
  sel_path : Analysis.Paths.exec_path;
  sel_tests : (string * float) list;  (** test name, similarity score *)
}

(** TF-IDF index over a program's [test_*] functions, built afresh. *)
val index_of_tests : Minilang.Ast.program -> Tfidf.index

(** The query text describing one execution path: its call chain, guard
    conditions, and the rule's description. *)
val query_of_path : Semantics.Rule.t -> Analysis.Paths.exec_path -> string

(** Top-[k] tests per path of an execution tree.  The index comes from
    a one-entry, domain-local memo keyed by the program's physical
    identity: selecting for every rule and tree of one program builds its
    index once.  This relies on ASTs being immutable — a program value
    never changes under its index — so a changed program is always a new
    value and misses the memo. *)
val select :
  Minilang.Ast.program ->
  Semantics.Rule.t ->
  Analysis.Paths.exec_tree ->
  k:int ->
  selection list

(** Union of selected test names, deduplicated, best score first. *)
val selected_tests : selection list -> string list

(** Seeded pseudo-random baseline for the E8 ablation. *)
val select_random : Minilang.Ast.program -> seed:int -> k:int -> string list
