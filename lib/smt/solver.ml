(** Satisfiability and validity for checker formulas.

    A small DPLL(T): the boolean structure is decided by backtracking over
    the formula's canonical atoms with three-valued early evaluation, and
    every partial assignment is checked against the theory
    ({!Theory.consistent}) so that theory-inconsistent branches are pruned
    immediately.  Complete for the supported fragment; formulas in this
    project have at most a few dozen atoms.

    The search works on a *compiled* form of the (simplified) formula:
    canonical atoms get dense indices and the partial assignment is an
    id-indexed value array instead of an association list.

    The module also implements the paper's *complement check* (§3.2): a
    trace with path condition [pc] **violates** a semantic with checker
    formula [c] iff [pc /\ !c] is satisfiable — under-constrained
    variables (the "missing checks") leave room for the complement, which
    is exactly the behaviour the paper motivates with the missing
    [s.ttl > 0] example. *)

type verdict = Sat of (Formula.atom * bool) list | Unsat | Unknown of string

let verdict_is_sat = function Sat _ -> true | Unsat | Unknown _ -> false

module Metrics = Telemetry.Metrics

let solve_calls = Metrics.counter "smt.solve_calls" ~doc:"Solver.solve invocations"

let full_solves = Metrics.counter "smt.full_solves" ~doc:"full DPLL(T) searches run"

let full_solve_count () = Metrics.value full_solves

let lits_of_assign (assign : (Formula.atom * bool) list) : Theory.lit list =
  List.map (fun (a, sign) -> Theory.lit sign a) assign

(* ------------------------------------------------------------------ *)
(* Compiled formulas                                                   *)
(* ------------------------------------------------------------------ *)

(* The search never walks the hash-consed formula with atom association
   lists: it compiles the simplified formula once per solve.  Canonical
   atoms get dense indices (the formula's first-occurrence atom order,
   as {!Formula.atoms} returns it), the three-valued evaluation reads an
   int array (0 unassigned / 1 true / 2 false), and the decision order
   is a DLIS-style most-occurrences-first static heuristic — tallied
   during compilation, stable over first-occurrence order, so the search
   is deterministic. *)
type cform =
  | C_true
  | C_false
  | C_atom of int
  | C_not of cform
  | C_and of cform array
  | C_or of cform array

type compiled = {
  cp_form : cform;
  cp_atoms : Formula.atom array;  (* index -> canonical atom *)
  cp_order : int list;  (* DLIS decision order over indices *)
}

let rel_code = function
  | Formula.Req -> 0
  | Formula.Rneq -> 1
  | Formula.Rlt -> 2
  | Formula.Rle -> 3
  | Formula.Rgt -> 4
  | Formula.Rge -> 5

let atom_key (a : Formula.atom) =
  (rel_code a.Formula.rel, Formula.term_id a.Formula.lhs, Formula.term_id a.Formula.rhs)

let compile (f : Formula.t) : compiled =
  let cp_atoms = Array.of_list (Formula.atoms f) in
  let n = Array.length cp_atoms in
  let index : (int * int * int, int) Hashtbl.t = Hashtbl.create (2 * (n + 1)) in
  Array.iteri (fun i a -> Hashtbl.replace index (atom_key a) i) cp_atoms;
  let counts = Array.make (max 1 n) 0 in
  let rec go g =
    match Formula.view g with
    | Formula.True -> C_true
    | Formula.False -> C_false
    | Formula.Atom a ->
        let i = Hashtbl.find index (atom_key (Formula.canon_atom a)) in
        counts.(i) <- counts.(i) + 1;
        C_atom i
    | Formula.Not h -> C_not (go h)
    | Formula.And fs -> C_and (Array.of_list (List.map go fs))
    | Formula.Or fs -> C_or (Array.of_list (List.map go fs))
  in
  let cp_form = go f in
  (* most-occurring atoms first, ties in first-occurrence order *)
  let cp_order =
    List.stable_sort
      (fun i j -> compare counts.(j) counts.(i))
      (List.init n (fun i -> i))
  in
  { cp_form; cp_atoms; cp_order }

(* three-valued evaluation over the compiled form *)
let rec ceval (tval : int array) = function
  | C_true -> 1
  | C_false -> 2
  | C_atom i -> tval.(i)
  | C_not g -> ( match ceval tval g with 0 -> 0 | 1 -> 2 | _ -> 1)
  | C_and gs ->
      let len = Array.length gs in
      let rec go i unknown =
        if i = len then if unknown then 0 else 1
        else
          match ceval tval gs.(i) with
          | 2 -> 2
          | 1 -> go (i + 1) unknown
          | _ -> go (i + 1) true
      in
      go 0 false
  | C_or gs ->
      let len = Array.length gs in
      let rec go i unknown =
        if i = len then if unknown then 0 else 2
        else
          match ceval tval gs.(i) with
          | 1 -> 1
          | 2 -> go (i + 1) unknown
          | _ -> go (i + 1) true
      in
      go 0 false

(* ------------------------------------------------------------------ *)
(* Node budget                                                         *)
(* ------------------------------------------------------------------ *)

(* DPLL search-node budget: an adversarial formula (many independent
   atoms the theory cannot prune) can force an exponential search, so
   every [solve] is bounded and answers [Unknown] instead of diverging.
   The default is far above anything the checker-formula fragment
   produces (a few dozen atoms, heavily theory-pruned), so no corpus
   query answers [Unknown] at the default budget. *)
let default_node_budget_cell = Atomic.make 200_000

let default_node_budget () = Atomic.get default_node_budget_cell

let set_default_node_budget n = Atomic.set default_node_budget_cell (max 1 n)

exception Budget_hit

(* ------------------------------------------------------------------ *)
(* The search                                                          *)
(* ------------------------------------------------------------------ *)

(* Decide satisfiability of an already-simplified, non-trivial formula.
   [Some model] / [None] / raises [Budget_hit]. *)
let search ~(budget : int) (cp : compiled) : (Formula.atom * bool) list option =
  let tval = Array.make (max 1 (Array.length cp.cp_atoms)) 0 in
  let nodes = ref 0 in
  let rec go assign remaining =
    incr nodes;
    if !nodes > budget then raise Budget_hit;
    if not (Theory.consistent (lits_of_assign assign)) then None
    else
      match ceval tval cp.cp_form with
      | 2 -> None
      | 1 -> Some assign
      | _ -> (
          match remaining with
          | [] -> None (* unreachable: all atoms assigned means no unknown *)
          | idx :: rest -> (
              let branch sign =
                tval.(idx) <- (if sign then 1 else 2);
                let r = go ((cp.cp_atoms.(idx), sign) :: assign) rest in
                tval.(idx) <- 0;
                r
              in
              match branch true with
              | Some _ as model -> model
              | None -> branch false))
  in
  go [] cp.cp_order

let solve_untraced ?node_budget (f : Formula.t) : verdict =
  Metrics.bump solve_calls;
  let budget =
    match node_budget with Some b -> max 1 b | None -> default_node_budget ()
  in
  let f = Formula.simplify f in
  match Formula.view f with
  | Formula.True -> Sat []
  | Formula.False -> Unsat
  | _ -> (
      Metrics.bump full_solves;
      match search ~budget (compile f) with
      | Some model -> Sat model
      | None -> Unsat
      | exception Budget_hit -> Unknown (Fmt.str "node budget %d exhausted" budget))

(* The traced wrapper only pays for the span while tracing is on. *)
let solve ?node_budget (f : Formula.t) : verdict =
  if not (Telemetry.Trace.enabled ()) then solve_untraced ?node_budget f
  else
    Telemetry.Trace.with_span ~cat:"smt" "smt.solve" @@ fun () ->
    solve_untraced ?node_budget f

let is_sat f = verdict_is_sat (solve f)

(** [Unknown] is conservatively {e not} unsat: an undecided formula
    neither proves nor refutes anything downstream. *)
let is_unsat f = match solve f with Unsat -> true | Sat _ | Unknown _ -> false

(** [is_valid f] iff [!f] has no model. *)
let is_valid f = is_unsat (Formula.negate f)

(** [entails pc c]: every state satisfying [pc] satisfies [c]. *)
let entails pc c = is_unsat (Formula.conj [ pc; Formula.negate c ])

(** [equivalent a b] iff they have the same models. *)
let equivalent a b = entails a b && entails b a

(* ------------------------------------------------------------------ *)
(* The paper's trace checks                                            *)
(* ------------------------------------------------------------------ *)

type trace_check =
  | Verified  (** the path condition implies the checker formula *)
  | Violation of (Formula.atom * bool) list
      (** satisfiable overlap with the complement; the model is the
          counterexample the developer sees in the report *)
  | Undecided of string
      (** the solver could not decide (budget, fault, open breaker);
          the reason is recorded and the rule's report degrades to an
          [unknown] verdict instead of killing the run *)

(** Complement check (the paper's method): the trace's [pc] violates
    checker formula [c] iff [pc /\ !c] is satisfiable.  Missing conditions
    in [pc] are unconstrained atoms, which is precisely what lets the
    complement be satisfied ("missing checks treated as true"). *)
let check_trace ~(pc : Formula.t) ~(checker : Formula.t) : trace_check =
  match solve (Formula.conj [ pc; Formula.negate checker ]) with
  | Unsat -> Verified
  | Sat model -> Violation model
  | Unknown reason -> Undecided reason

(** The naive *direct* check used as an ablation (experiment E8): flag a
    trace only if its path condition outright contradicts the checker
    formula.  Traces that merely *miss* a required check satisfy
    [sat (pc /\ c)] and slip through — the false-negative mode the paper
    argues against. *)
let check_trace_direct ~(pc : Formula.t) ~(checker : Formula.t) : trace_check =
  match solve (Formula.conj [ pc; checker ]) with
  | Unsat -> Violation []
  | Sat _ -> Verified
  | Unknown reason -> Undecided reason

let model_to_string (model : (Formula.atom * bool) list) : string =
  model
  |> List.map (fun (a, sign) ->
         if sign then Formula.atom_to_string a
         else Formula.atom_to_string { a with Formula.rel = Formula.negate_rel a.Formula.rel })
  |> String.concat " && "
  |> function
  | "" -> "(trivial)"
  | s -> s
