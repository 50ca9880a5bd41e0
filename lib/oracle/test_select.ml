(** RAG-style test selection (paper §3.2).

    "Instead of doing execution with random inputs, our tool utilizes
    existing tests to act as our input … our system automatically selects
    relevant tests for each path using LLM-based similarity search over
    test embeddings."

    The deterministic analog: every test function of the subject system is
    embedded with TF-IDF ({!Tfidf}); the *query* for an execution path is
    assembled from the path's call chain, the guard conditions along it,
    and the rule's description — the same signals the paper's LLM is asked
    to summarize ("identify the features involved by this execution path
    and the condition for the feature to take this execution path"). *)

open Minilang

type selection = {
  sel_path : Analysis.Paths.exec_path;
  sel_tests : (string * float) list;  (** test name, similarity score *)
}

let index_builds =
  Telemetry.Metrics.counter "oracle.test_index.builds"
    ~doc:"TF-IDF test indexes built"

(** Build the searchable index over a program's test functions. *)
let index_of_tests (p : Ast.program) : Tfidf.index =
  Telemetry.Metrics.bump index_builds;
  let docs =
    List.filter_map
      (fun (f : Ast.method_decl) ->
        if
          String.length f.Ast.m_name >= 5
          && String.sub f.Ast.m_name 0 5 = "test_"
        then
          Some
            {
              Tfidf.doc_id = f.Ast.m_name;
              text = f.Ast.m_name ^ "\n" ^ Pretty.method_to_string f;
            }
        else None)
      p.Ast.p_funcs
  in
  Tfidf.build docs

(** The query text describing one execution path. *)
let query_of_path (rule : Semantics.Rule.t) (ep : Analysis.Paths.exec_path) : string
    =
  let chain = String.concat " " ep.Analysis.Paths.ep_chain in
  let decisions =
    ep.Analysis.Paths.ep_decisions
    |> List.map (fun (d : Analysis.Paths.decision) ->
           Pretty.expr_to_string d.Analysis.Paths.d_cond)
    |> String.concat " "
  in
  String.concat " " [ chain; decisions; rule.Semantics.Rule.description ]

(* The last program this domain indexed and its index.  Keyed by
   physical identity: ASTs are immutable, so an index built for [p] stays
   valid for as long as [p] lives, and holding [p] here keeps its address
   from being reused by another program.  Callers prepare all rules of one
   program in a row, so one entry per domain suffices. *)
let last_index : (Ast.program * Tfidf.index) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let index_for (p : Ast.program) : Tfidf.index =
  let cell = Domain.DLS.get last_index in
  match !cell with
  | Some (p', ix) when p' == p -> ix
  | _ ->
      let ix = index_of_tests p in
      cell := Some (p, ix);
      ix

(** Select the [k] most relevant tests for each path of an execution tree.
    Returns one selection per path (the concolic engine then uses the union
    of the selected tests as its concrete inputs). *)
let select (p : Ast.program) (rule : Semantics.Rule.t)
    (tree : Analysis.Paths.exec_tree) ~(k : int) : selection list =
  let ix = index_for p in
  List.map
    (fun ep ->
      { sel_path = ep; sel_tests = Tfidf.top_k ix ~query:(query_of_path rule ep) ~k })
    tree.Analysis.Paths.et_paths

(** Union of selected test names across paths, deduplicated, score-sorted. *)
let selected_tests (sels : selection list) : string list =
  let all = List.concat_map (fun s -> s.sel_tests) sels in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) all in
  let rec dedup seen = function
    | [] -> []
    | (name, _) :: rest ->
        if List.mem name seen then dedup seen rest else name :: dedup (name :: seen) rest
  in
  dedup [] sorted

(** Baseline for the E8 ablation: pick [k] tests in declaration order with
    a seeded rotation — "random" but reproducible. *)
let select_random (p : Ast.program) ~(seed : int) ~(k : int) : string list =
  let tests = Interp.test_names p in
  let n = List.length tests in
  if n = 0 then []
  else
    List.init (min k n) (fun i -> List.nth tests ((seed + (i * 7)) mod n))
    |> List.sort_uniq compare
