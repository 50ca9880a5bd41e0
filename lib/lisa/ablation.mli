(** Experiment E8 — mechanism ablations over the guard cases: branch
    pruning on/off, RAG vs. all vs. pseudo-random test selection, and the
    complement vs. direct check. *)

type variant = { v_name : string; v_config : Engine.Checker.config }

val variants : variant list

val guard_cases : ?registry:Corpus.Registry.t -> unit -> Corpus.Case.t list

type row = {
  r_variant : string;
  r_regressions_caught : int;
  r_total_guard_cases : int;
  r_tests_run : int;
  r_branches_recorded : int;
  r_branches_total : int;
  r_uncovered_paths : int;
}

val run_variant : ?registry:Corpus.Registry.t -> variant -> row

val run : ?registry:Corpus.Registry.t -> unit -> row list

val print : row list -> string
