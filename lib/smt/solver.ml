(** Satisfiability and validity for checker formulas.

    A small DPLL(T): the boolean structure is decided by backtracking over
    the formula's canonical atoms with three-valued early evaluation, and
    every partial assignment is checked against the theory
    ({!Theory.consistent}) so that theory-inconsistent branches are pruned
    immediately.  Complete for the supported fragment; formulas in this
    project have at most a few dozen atoms.

    The search core works on a *compiled* form of the (simplified)
    formula: canonical atoms get dense indices, the partial assignment is
    an id-indexed value array instead of an association list, and a
    clausal view of the NNF feeds a two-watched-literal unit-propagation
    engine that prunes unsatisfiable branches before they are entered.
    Both are result-preserving accelerations: verdicts *and* models are
    byte-identical to the plain backtracking search.

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

let propagations =
  Metrics.counter "smt.propagations" ~doc:"literals implied by unit propagation"

(* ------------------------------------------------------------------ *)
(* Pre-solver fast path (Absdom / BCP)                                 *)
(* ------------------------------------------------------------------ *)

(* The fast path is result-preserving (an Unsat short-circuit carries no
   payload), so the flag deliberately does not participate in any cache
   key: it can change the cost of a verdict, never the verdict.  On by
   default; turning it off measures the full solves it saves. *)
let fastpath_flag = Atomic.make true

let set_fastpath_enabled b = Atomic.set fastpath_flag b

let fastpath_enabled () = Atomic.get fastpath_flag

(* Queries retired per rung of the ladder, plus the total of full
   DPLL(T) searches actually run ([full_solves]) — the ladder's
   reduction is full_solves(on) vs full_solves(off). *)
let fastpath_interval =
  Metrics.counter "smt.fastpath.interval"
    ~doc:"queries retired by the abstract-domain pre-solver"

let fastpath_bcp =
  Metrics.counter "smt.fastpath.bcp" ~doc:"queries retired by the root-BCP-only check"

let fastpath_saved =
  Metrics.counter "smt.fastpath.saved"
    ~doc:"full DPLL(T) searches avoided (sum of the fast-path rungs)"

let full_solves = Metrics.counter "smt.full_solves" ~doc:"full DPLL(T) searches run"

let full_solve_count () = Metrics.value full_solves

let lits_of_assign (assign : (Formula.atom * bool) list) : Theory.lit list =
  List.map (fun (a, sign) -> Theory.lit sign a) assign

(* ------------------------------------------------------------------ *)
(* Theory-consistency memo                                             *)
(* ------------------------------------------------------------------ *)

(* [Theory.consistent] is called on every node of the DPLL search tree,
   and under engine traffic the same partial assignments recur across
   thousands of structurally similar path conditions.  Memoize verdicts
   globally, keyed by the order-insensitive set of literal ids — a sorted
   list of (sign, rel, lhs id, rhs id) quadruples over the canonical
   atoms' interned terms, so building a key allocates no strings.
   Mutex-protected (worker domains share the table); bounded by epoch
   clearing so it cannot grow without bound. *)
type lit_id = int * int * int * int

let theory_memo : (lit_id list, bool) Hashtbl.t = Hashtbl.create 4096

let theory_memo_lock = Mutex.create ()

let theory_memo_max = ref (1 lsl 16)

let set_theory_memo_max n =
  Mutex.lock theory_memo_lock;
  theory_memo_max := max 2 n;
  Mutex.unlock theory_memo_lock

let theory_memo_size () =
  Mutex.lock theory_memo_lock;
  let n = Hashtbl.length theory_memo in
  Mutex.unlock theory_memo_lock;
  n

let reset_theory_memo () =
  Mutex.lock theory_memo_lock;
  Hashtbl.reset theory_memo;
  Mutex.unlock theory_memo_lock

(* Epoch halving: drop every other entry instead of resetting the whole
   table, so a full memo sheds weight without cold-starting every
   in-flight domain at once.  Caller holds [theory_memo_lock]. *)
let halve_theory_memo () =
  let keep = ref false in
  let victims =
    Hashtbl.fold
      (fun k _ acc ->
        keep := not !keep;
        if !keep then k :: acc else acc)
      theory_memo []
  in
  List.iter (Hashtbl.remove theory_memo) victims

let rel_code = function
  | Formula.Req -> 0
  | Formula.Rneq -> 1
  | Formula.Rlt -> 2
  | Formula.Rle -> 3
  | Formula.Rgt -> 4
  | Formula.Rge -> 5

let lit_key (a, sign) : lit_id =
  let c = Formula.canon_atom a in
  ( (if sign then 1 else 0),
    rel_code c.Formula.rel,
    Formula.term_id c.Formula.lhs,
    Formula.term_id c.Formula.rhs )

(* Theory consistency of a partial assignment, through the memo.
   [keys] is the sorted literal-id key of [assign], maintained
   incrementally by the search.  Memo entries record definite
   [Theory.consistent] verdicts, so caching never changes a result —
   only its cost. *)
let consistent_with ~(keys : lit_id list) (assign : (Formula.atom * bool) list) :
    bool =
  match assign with
  | [] -> true
  | _ -> (
      Mutex.lock theory_memo_lock;
      let cached = Hashtbl.find_opt theory_memo keys in
      Mutex.unlock theory_memo_lock;
      match cached with
      | Some b -> b
      | None ->
          let b = Theory.consistent (lits_of_assign assign) in
          Mutex.lock theory_memo_lock;
          if Hashtbl.length theory_memo >= !theory_memo_max then
            halve_theory_memo ();
          Hashtbl.replace theory_memo keys b;
          Mutex.unlock theory_memo_lock;
          b)

(* sorted insert; trail literals are distinct so no dedup is needed *)
let rec insert_key (k : lit_id) = function
  | [] -> [ k ]
  | k' :: rest as keys ->
      if compare k k' <= 0 then k :: keys else k' :: insert_key k rest

(* ------------------------------------------------------------------ *)
(* Compiled formulas                                                   *)
(* ------------------------------------------------------------------ *)

(* The search core never walks the hash-consed formula with atom
   association lists: it compiles the simplified formula once per solve.
   Canonical atoms get dense indices (the formula's first-occurrence
   atom order, as {!Formula.atoms} returns it), the three-valued
   evaluation reads an int array (0 unassigned / 1 true / 2 false), and
   the decision order is the same DLIS-style most-occurrences-first
   static heuristic as before — tallied during compilation, stable over
   first-occurrence order, so the search is deterministic and visits
   exactly the nodes the list-based search visited. *)
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
  cp_key_t : lit_id array;  (* memo key of atom i asserted true *)
  cp_key_f : lit_id array;  (* ... asserted false *)
  cp_clauses : int array array;
      (* clausal view of the NNF; literal code = 2*idx + (0 pos / 1 neg);
         watched literals live at slots 0 and 1 *)
  cp_units : int array;  (* literal codes of unit clauses *)
}

let compile (f : Formula.t) : compiled =
  let atoms = Formula.atoms f in
  let cp_atoms = Array.of_list atoms in
  let n = Array.length cp_atoms in
  let index : (int * int * int, int) Hashtbl.t = Hashtbl.create (2 * (n + 1)) in
  Array.iteri
    (fun i (a : Formula.atom) ->
      Hashtbl.replace index
        (rel_code a.Formula.rel, Formula.term_id a.Formula.lhs, Formula.term_id a.Formula.rhs)
        i)
    cp_atoms;
  let idx_of (a : Formula.atom) : int =
    let c = Formula.canon_atom a in
    Hashtbl.find index
      (rel_code c.Formula.rel, Formula.term_id c.Formula.lhs, Formula.term_id c.Formula.rhs)
  in
  let counts = Array.make (max 1 n) 0 in
  let rec go g =
    match Formula.view g with
    | Formula.True -> C_true
    | Formula.False -> C_false
    | Formula.Atom a ->
        let i = idx_of a in
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
  (* Clausal view of the NNF, extracted by a polarity-aware walk (no
     NNF node is materialized): positive And / negative Or nodes are
     conjunctions; positive Or / negative And nodes whose children are
     all literals become clauses.  Non-clausal conjuncts are skipped —
     the clause set under-approximates the formula's constraints, which
     is sound for propagation (missing a clause only misses a prune). *)
  let clauses = ref [] in
  let lit_code i pol = (2 * i) + if pol then 0 else 1 in
  let rec lits_of g pol acc =
    match acc with
    | None -> None
    | Some ls -> (
        match (Formula.view g, pol) with
        | Formula.Atom a, _ -> Some (lit_code (idx_of a) pol :: ls)
        | Formula.Not h, _ -> lits_of h (not pol) acc
        | Formula.Or gs, true | Formula.And gs, false ->
            List.fold_left (fun acc g -> lits_of g pol acc) acc gs
        | _ -> None)
  in
  let add_clause lits =
    let lits = List.sort_uniq compare lits in
    let tautology = List.exists (fun l -> List.mem (l lxor 1) lits) lits in
    if not tautology && lits <> [] then clauses := Array.of_list lits :: !clauses
  in
  let rec conjuncts g pol =
    match (Formula.view g, pol) with
    | Formula.True, true | Formula.False, false -> ()
    | Formula.And gs, true | Formula.Or gs, false ->
        List.iter (fun h -> conjuncts h pol) gs
    | Formula.Not h, _ -> conjuncts h (not pol)
    | _ -> (
        match lits_of g pol (Some []) with
        | Some ls -> add_clause ls
        | None -> ())
  in
  conjuncts f true;
  let all = List.rev !clauses in
  let cp_clauses =
    Array.of_list (List.filter (fun c -> Array.length c >= 2) all)
  in
  let cp_units =
    Array.of_list
      (List.filter_map
         (fun c -> if Array.length c = 1 then Some c.(0) else None)
         all)
  in
  let cp_key_t = Array.map (fun a -> lit_key (a, true)) cp_atoms in
  let cp_key_f = Array.map (fun a -> lit_key (a, false)) cp_atoms in
  { cp_form; cp_atoms; cp_order; cp_key_t; cp_key_f; cp_clauses; cp_units }

(* three-valued evaluation over the compiled form; [tval] holds only
   *decided* atoms (the trail), never propagated implications, so the
   evaluation — and with it verdicts and models — is identical to the
   historic association-list walk *)
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
(* Unit propagation (two watched literals)                             *)
(* ------------------------------------------------------------------ *)

(* Propagation is a *conflict-only lookahead*: implied literals live in a
   separate value array ([pr_pval], trail + implications) that never
   feeds [ceval], so it can only prune branches whose subtree the plain
   search would exhaust as unsatisfiable — never change a verdict or a
   model.  Each clause watches two literals; a clause is revisited only
   when a watched literal is falsified, and watch moves need no undo on
   backtracking (the classic invariant: a moved watch is never on a
   literal falsified below the current level, because levels are undone
   in stack order). *)
type prop = {
  pr_pval : int array;  (* 0 / 1 / 2 over atom indices: trail + implied *)
  pr_trail : int array;  (* assigned atom indices, a stack *)
  mutable pr_len : int;
  pr_watch : int list array;  (* literal code -> indices of watching clauses *)
  pr_clauses : int array array;
  mutable pr_enabled : bool;
}

(* 1 = literal true, 2 = false, 0 = unassigned under [pr_pval] *)
let lit_value (pr : prop) (l : int) : int =
  let v = pr.pr_pval.(l lsr 1) in
  if v = 0 then 0 else if v = 1 = (l land 1 = 0) then 1 else 2

let assign_lit (pr : prop) (l : int) : unit =
  let idx = l lsr 1 in
  pr.pr_pval.(idx) <- (if l land 1 = 0 then 1 else 2);
  pr.pr_trail.(pr.pr_len) <- idx;
  pr.pr_len <- pr.pr_len + 1

let undo_to (pr : prop) (mark : int) : unit =
  while pr.pr_len > mark do
    pr.pr_len <- pr.pr_len - 1;
    pr.pr_pval.(pr.pr_trail.(pr.pr_len)) <- 0
  done

(* Propagate the consequences of the queued newly-true literal codes.
   Returns false on a boolean conflict (the caller undoes to its mark). *)
let rec propagate (pr : prop) (queue : int list) : bool =
  match queue with
  | [] -> true
  | l :: queue ->
      let fl = l lxor 1 in
      let watchers = pr.pr_watch.(fl) in
      pr.pr_watch.(fl) <- [];
      let rec visit ws queue =
        match ws with
        | [] -> propagate pr queue
        | ci :: ws -> (
            let c = pr.pr_clauses.(ci) in
            if c.(0) = fl then begin
              c.(0) <- c.(1);
              c.(1) <- fl
            end;
            if lit_value pr c.(0) = 1 then begin
              (* clause already satisfied: keep watching [fl] *)
              pr.pr_watch.(fl) <- ci :: pr.pr_watch.(fl);
              visit ws queue
            end
            else begin
              let len = Array.length c in
              let rec find k =
                if k >= len then -1
                else if lit_value pr c.(k) <> 2 then k
                else find (k + 1)
              in
              let k = find 2 in
              if k >= 0 then begin
                (* move the watch to a non-false literal *)
                c.(1) <- c.(k);
                c.(k) <- fl;
                pr.pr_watch.(c.(1)) <- ci :: pr.pr_watch.(c.(1));
                visit ws queue
              end
              else begin
                pr.pr_watch.(fl) <- ci :: pr.pr_watch.(fl);
                match lit_value pr c.(0) with
                | 2 ->
                    (* conflict: restore the unvisited watchers and fail *)
                    pr.pr_watch.(fl) <- List.rev_append ws pr.pr_watch.(fl);
                    false
                | 0 ->
                    assign_lit pr c.(0);
                    Metrics.bump propagations;
                    visit ws (c.(0) :: queue)
                | _ -> visit ws queue
              end
            end)
      in
      visit watchers queue

(* Build the propagation state for a compiled formula and run the root
   unit implications.  If the roots alone conflict, propagation is
   disabled for this solve and the plain search runs unassisted — that
   keeps node counts (and thus budget edges) of unsatisfiable formulas
   identical to the historic search. *)
let prop_create (cp : compiled) : prop =
  let n = Array.length cp.cp_atoms in
  let pr =
    {
      pr_pval = Array.make (max 1 n) 0;
      pr_trail = Array.make (max 1 n) 0;
      pr_len = 0;
      pr_watch = Array.make (max 1 (2 * n)) [];
      pr_clauses = Array.map Array.copy cp.cp_clauses;
      pr_enabled = true;
    }
  in
  Array.iteri
    (fun ci c ->
      pr.pr_watch.(c.(0)) <- ci :: pr.pr_watch.(c.(0));
      pr.pr_watch.(c.(1)) <- ci :: pr.pr_watch.(c.(1)))
    pr.pr_clauses;
  let ok =
    Array.for_all
      (fun u ->
        match lit_value pr u with
        | 1 -> true
        | 2 -> false
        | _ ->
            assign_lit pr u;
            propagate pr [ u ])
      cp.cp_units
  in
  if not ok then begin
    undo_to pr 0;
    pr.pr_enabled <- false
  end;
  pr

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
(* The search core                                                     *)
(* ------------------------------------------------------------------ *)

(* Decide satisfiability of an already-simplified, non-trivial formula.
   [pr] is the root propagation state built by [prop_create cp] (shared
   with the fast path's BCP check so the root propagation runs once).
   [Some model] / [None] / raises [Budget_hit]. *)
let search_compiled ~(budget : int) (pr : prop) (cp : compiled) :
    (Formula.atom * bool) list option =
  let n = Array.length cp.cp_atoms in
  let tval = Array.make (max 1 n) 0 in
  let nodes = ref 0 in
  let rec search assign keys remaining =
    incr nodes;
    if !nodes > budget then raise Budget_hit;
    if not (consistent_with ~keys assign) then None
    else
      match ceval tval cp.cp_form with
      | 2 -> None
      | 1 -> Some assign
      | _ -> (
          match remaining with
          | [] -> None (* unreachable: all atoms assigned means no unknown *)
          | idx :: rest -> (
              let a = cp.cp_atoms.(idx) in
              let branch sign key =
                tval.(idx) <- (if sign then 1 else 2);
                let entered =
                  if not pr.pr_enabled then Some pr.pr_len
                  else
                    let want = if sign then 1 else 2 in
                    let v = pr.pr_pval.(idx) in
                    if v = want then Some pr.pr_len
                    else if v <> 0 then None (* implied opposite: unsat branch *)
                    else begin
                      let mark = pr.pr_len in
                      let code = (2 * idx) + if sign then 0 else 1 in
                      assign_lit pr code;
                      if propagate pr [ code ] then Some mark
                      else begin
                        undo_to pr mark;
                        None
                      end
                    end
                in
                let r =
                  match entered with
                  | None -> None
                  | Some mark ->
                      let r =
                        search ((a, sign) :: assign) (insert_key key keys) rest
                      in
                      undo_to pr mark;
                      r
                in
                tval.(idx) <- 0;
                r
              in
              match branch true cp.cp_key_t.(idx) with
              | Some _ as model -> model
              | None -> branch false cp.cp_key_f.(idx)))
  in
  search [] [] cp.cp_order

let solve_untraced ?node_budget (f : Formula.t) : verdict =
  Metrics.bump solve_calls;
  let budget =
    match node_budget with Some b -> max 1 b | None -> default_node_budget ()
  in
  let f = Formula.simplify f in
  match Formula.view f with
  | Formula.True -> Sat []
  | Formula.False -> Unsat
  | _ when Atomic.get fastpath_flag && Absdom.refute f ->
      (* rung 1: the abstract domain proved the conjunct facts refute
         the formula — Unsat carries no payload, so the short-circuit is
         byte-identical to the search's answer *)
      Metrics.bump fastpath_interval;
      Metrics.bump fastpath_saved;
      Unsat
  | _ ->
      let cp = compile f in
      let pr = prop_create cp in
      if Atomic.get fastpath_flag && not pr.pr_enabled then begin
        (* rung 2: root BCP over the clausal NNF view hit a conflict;
           the clause set is entailed by [f], so a root conflict proves
           Unsat without searching *)
        Metrics.bump fastpath_bcp;
        Metrics.bump fastpath_saved;
        Unsat
      end
      else begin
        Metrics.bump full_solves;
        match search_compiled ~budget pr cp with
        | Some model -> Sat model
        | None -> Unsat
        | exception Budget_hit ->
            Unknown (Fmt.str "node budget %d exhausted" budget)
      end

(* The traced wrapper only pays for the span while tracing is on; the
   healthy fast path is one atomic load. *)
let solve ?node_budget (f : Formula.t) : verdict =
  if not (Telemetry.Trace.enabled ()) then solve_untraced ?node_budget f
  else
    Telemetry.Trace.with_span ~cat:"smt" "smt.solve" @@ fun () ->
    solve_untraced ?node_budget f

(* Test hook for the qcheck soundness suite: does root BCP alone (rung 2
   of the fast path) refute the formula? *)
let bcp_refutes (f : Formula.t) : bool =
  let f = Formula.simplify f in
  match Formula.view f with
  | Formula.False -> true
  | Formula.True -> false
  | _ -> not (prop_create (compile f)).pr_enabled

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
