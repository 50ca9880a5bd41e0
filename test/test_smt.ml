(* Tests for the SMT layer: formulas, theory solver, DPLL(T), and the
   paper's complement-based trace check. *)

open Smt
module Metrics = Telemetry.Metrics

let v = Formula.tvar

let i = Formula.tint

let b = Formula.tbool

(* ------------------------------------------------------------------ *)
(* Simplifier                                                          *)
(* ------------------------------------------------------------------ *)

let test_simplify_constants () =
  let f = Formula.(conj [ tru; disj [ fls; atom Req (v "x") (i 1) ] ]) in
  Alcotest.(check string)
    "collapses constants" "x == 1"
    (Formula.to_string (Formula.simplify f))

let test_simplify_complementary () =
  let f = Formula.(conj [ eq (v "x") (i 1); neq (v "x") (i 1) ]) in
  Alcotest.(check string) "x==1 && x!=1 is false" "false"
    (Formula.to_string (Formula.simplify f))

let test_simplify_dedup () =
  let f = Formula.(conj [ eq (v "x") (i 1); eq (v "x") (i 1) ]) in
  Alcotest.(check string) "duplicates removed" "x == 1"
    (Formula.to_string (Formula.simplify f))

let test_nnf_no_not () =
  let f = Formula.(negate (conj [ eq (v "x") (i 1); negate (lt (v "y") (i 2)) ])) in
  let rec has_not f =
    match Formula.view f with
    | Formula.Not _ -> true
    | Formula.And fs | Formula.Or fs -> List.exists has_not fs
    | Formula.True | Formula.False | Formula.Atom _ -> false
  in
  Alcotest.(check bool) "nnf eliminates Not" false (has_not (Formula.nnf f))

let test_canon_atom () =
  let a = Formula.{ rel = Rgt; lhs = v "x"; rhs = i 3 } in
  let c = Formula.canon_atom a in
  Alcotest.(check string) "x > 3 becomes 3 < x" "3 < x" (Formula.atom_to_string c)

(* ------------------------------------------------------------------ *)
(* Theory                                                              *)
(* ------------------------------------------------------------------ *)

let lit sign rel lhs rhs = Theory.lit sign Formula.{ rel; lhs; rhs }

let test_theory_eq_chain_conflict () =
  (* x = y, y = 1, x = 2 is inconsistent *)
  let lits =
    [
      lit true Formula.Req (v "x") (v "y");
      lit true Formula.Req (v "y") (i 1);
      lit true Formula.Req (v "x") (i 2);
    ]
  in
  Alcotest.(check bool) "conflict" false (Theory.consistent lits)

let test_theory_eq_chain_ok () =
  let lits =
    [
      lit true Formula.Req (v "x") (v "y");
      lit true Formula.Req (v "y") (i 1);
      lit true Formula.Req (v "x") (i 1);
    ]
  in
  Alcotest.(check bool) "consistent" true (Theory.consistent lits)

let test_theory_neq_conflict () =
  let lits =
    [ lit true Formula.Req (v "x") (v "y"); lit true Formula.Rneq (v "x") (v "y") ]
  in
  Alcotest.(check bool) "x=y && x!=y" false (Theory.consistent lits)

let test_theory_null_vs_const () =
  let lits = [ lit true Formula.Req (v "s") Formula.tnull; lit true Formula.Req (v "s") (b true) ] in
  Alcotest.(check bool) "null /= true" false (Theory.consistent lits)

let test_theory_bounds_conflict () =
  (* x < y, y < x *)
  let lits =
    [ lit true Formula.Rlt (v "x") (v "y"); lit true Formula.Rlt (v "y") (v "x") ]
  in
  Alcotest.(check bool) "cycle" false (Theory.consistent lits)

let test_theory_bounds_tight () =
  (* 0 <= x, x <= 0, x != 0 — bounds force x = 0 *)
  let lits =
    [
      lit true Formula.Rle (i 0) (v "x");
      lit true Formula.Rle (v "x") (i 0);
      lit true Formula.Rneq (v "x") (i 0);
    ]
  in
  Alcotest.(check bool) "forced equal" false (Theory.consistent lits)

let test_theory_bounds_transitive () =
  (* x < y, y < z, z < x+2 is satisfiable? x<y<z and z <= x+1 -> y-x>=1, z-y>=1 -> z-x>=2 but z-x<=1: unsat *)
  let lits =
    [
      lit true Formula.Rlt (v "x") (v "y");
      lit true Formula.Rlt (v "y") (v "z");
      lit true Formula.Rle (v "z") (v "x");
    ]
  in
  Alcotest.(check bool) "transitive unsat" false (Theory.consistent lits);
  let ok =
    [ lit true Formula.Rlt (v "x") (v "y"); lit true Formula.Rlt (v "y") (v "z") ]
  in
  Alcotest.(check bool) "chain sat" true (Theory.consistent ok)

let test_theory_eq_propagates_bounds () =
  (* x = y, x <= 3, y >= 5 unsat *)
  let lits =
    [
      lit true Formula.Req (v "x") (v "y");
      lit true Formula.Rle (v "x") (i 3);
      lit true Formula.Rge (v "y") (i 5);
    ]
  in
  Alcotest.(check bool) "eq + bounds" false (Theory.consistent lits)

let test_theory_negated_literal () =
  (* !(x < 3) means x >= 3; with x <= 2 unsat *)
  let lits =
    [ lit false Formula.Rlt (v "x") (i 3); lit true Formula.Rle (v "x") (i 2) ]
  in
  Alcotest.(check bool) "negated order" false (Theory.consistent lits)

let test_theory_sort_conflict () =
  (* ordering a string is ill-sorted -> inconsistent *)
  let lits = [ lit true Formula.Rlt (Formula.tstr "a") (i 3) ] in
  Alcotest.(check bool) "ill-sorted" false (Theory.consistent lits)

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

let closing = Formula.bvar "s.closing"

let not_closing = Formula.eq (v "s.closing") (b false)

let snull = Formula.eq (v "s") Formula.tnull

let snotnull = Formula.neq (v "s") Formula.tnull

let ttl_pos = Formula.gt (v "s.ttl") (i 0)

let test_solver_sat_simple () =
  Alcotest.(check bool) "x == 1 sat" true (Solver.is_sat (Formula.eq (v "x") (i 1)))

let test_solver_unsat_simple () =
  Alcotest.(check bool) "x==1 && x==2 unsat" true
    (Solver.is_unsat Formula.(conj [ eq (v "x") (i 1); eq (v "x") (i 2) ]))

let test_solver_disjunction () =
  Alcotest.(check bool) "(x==1 || x==2) && x!=1 sat" true
    (Solver.is_sat
       Formula.(conj [ disj [ eq (v "x") (i 1); eq (v "x") (i 2) ]; neq (v "x") (i 1) ]))

let test_solver_validity () =
  Alcotest.(check bool) "x==1 -> x<=1 valid" true
    (Solver.is_valid Formula.(disj [ negate (eq (v "x") (i 1)); le (v "x") (i 1) ]))

let test_solver_entails () =
  Alcotest.(check bool) "x==1 entails x<2" true
    (Solver.entails (Formula.eq (v "x") (i 1)) (Formula.lt (v "x") (i 2)));
  Alcotest.(check bool) "x<2 does not entail x==1" false
    (Solver.entails (Formula.lt (v "x") (i 2)) (Formula.eq (v "x") (i 1)))

let test_solver_equivalence () =
  Alcotest.(check bool) "De Morgan" true
    (Solver.equivalent
       Formula.(negate (conj [ closing; snull ]))
       Formula.(disj [ negate closing; negate snull ]))

(* The ephemeral-node example from the paper, verbatim (§3.2):
   checker  C = s != null && s.closing == false && s.ttl > 0 *)
let checker = Formula.conj [ snotnull; not_closing; ttl_pos ]

let test_paper_example_null_trace () =
  (* trace condition (s == null) fulfills the complement -> violation *)
  match Solver.check_trace ~pc:snull ~checker with
  | Solver.Violation _ -> ()
  | Solver.Verified | Solver.Undecided _ -> Alcotest.fail "expected violation/verdict"

let test_paper_example_missing_ttl () =
  (* (s != null && !closing) misses the ttl check -> violation *)
  let pc = Formula.conj [ snotnull; not_closing ] in
  match Solver.check_trace ~pc ~checker with
  | Solver.Violation model ->
      (* the counterexample must involve the missing ttl constraint *)
      let s = Solver.model_to_string model in
      Alcotest.(check bool) "model mentions ttl" true
        (Astring_contains.contains s "ttl")
  | Solver.Verified | Solver.Undecided _ -> Alcotest.fail "expected violation/verdict"

let test_paper_example_full_guard () =
  let pc = Formula.conj [ snotnull; not_closing; ttl_pos ] in
  match Solver.check_trace ~pc ~checker with
  | Solver.Verified -> ()
  | Solver.Violation m ->
      Alcotest.fail ("unexpected violation: " ^ Solver.model_to_string m)
      | Solver.Undecided reason -> Alcotest.fail ("unexpected undecided: " ^ reason)

let test_paper_example_stronger_guard () =
  (* a trace with an even stronger condition still verifies *)
  let pc = Formula.conj [ snotnull; not_closing; Formula.gt (v "s.ttl") (i 10) ] in
  match Solver.check_trace ~pc ~checker with
  | Solver.Verified -> ()
  | Solver.Violation m ->
      Alcotest.fail ("unexpected violation: " ^ Solver.model_to_string m)
      | Solver.Undecided reason -> Alcotest.fail ("unexpected undecided: " ^ reason)

let test_direct_check_misses_missing_ttl () =
  (* ablation: the direct check fails to flag the missing-ttl trace *)
  let pc = Formula.conj [ snotnull; not_closing ] in
  match Solver.check_trace_direct ~pc ~checker with
  | Solver.Verified -> () (* the false negative the paper warns about *)
  | Solver.Violation _ -> Alcotest.fail "direct check should miss this"
  | Solver.Undecided reason -> Alcotest.fail ("unexpected undecided: " ^ reason)

(* ------------------------------------------------------------------ *)
(* Properties: solver soundness vs brute-force on a finite domain       *)
(* ------------------------------------------------------------------ *)

(* Random formulas over 3 int variables with constants in 0..3, plus one
   bool variable.  Brute-force all assignments with ints in -4..8: a
   difference-logic chain over 3 variables needs at most 3 slots beyond
   the constant range on either side (e.g. x < y < z < 0 forces x = -3),
   so this domain witnesses satisfiability for every formula the
   generator can produce. *)
let gen_formula : Formula.t QCheck.arbitrary =
  let open QCheck in
  let var = Gen.oneofl [ "x"; "y"; "z" ] in
  let term =
    Gen.oneof
      [ Gen.map Formula.tvar var; Gen.map (fun n -> Formula.tint (abs n mod 4)) Gen.small_int ]
  in
  let rel = Gen.oneofl Formula.[ Req; Rneq; Rlt; Rle; Rgt; Rge ] in
  let atom_gen =
    Gen.map3 (fun r l rh -> Formula.atom r l rh) rel term term
  in
  let bool_atom = Gen.oneofl [ Formula.bvar "p"; Formula.eq (Formula.tvar "p") (Formula.tbool false) ] in
  let leaf = Gen.oneof [ atom_gen; bool_atom; Gen.return Formula.tru; Gen.return Formula.fls ] in
  let rec go n =
    if n <= 0 then leaf
    else
      Gen.oneof
        [
          leaf;
          Gen.map (fun f -> Formula.negate f) (go (n - 1));
          Gen.map2 (fun a b2 -> Formula.conj [ a; b2 ]) (go (n / 2)) (go (n / 2));
          Gen.map2 (fun a b2 -> Formula.disj [ a; b2 ]) (go (n / 2)) (go (n / 2));
        ]
  in
  make ~print:Formula.to_string (Gen.sized (fun n -> go (min n 6)))

let brute_force_sat (f : Formula.t) : bool =
  let domain = [ -4; -3; -2; -1; 0; 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let envs =
    List.concat_map
      (fun x ->
        List.concat_map
          (fun y ->
            List.concat_map
              (fun z ->
                List.map
                  (fun p ->
                    [
                      ("x", Formula.V_int x);
                      ("y", Formula.V_int y);
                      ("z", Formula.V_int z);
                      ("p", Formula.V_bool p);
                    ])
                  [ true; false ])
              domain)
          domain)
      domain
  in
  List.exists (fun env -> Formula.eval env f = Some true) envs

let prop_solver_agrees_with_brute_force =
  QCheck.Test.make ~count:300 ~name:"solver agrees with brute force" gen_formula
    (fun f -> Solver.is_sat f = brute_force_sat f)

let prop_simplify_preserves_models =
  QCheck.Test.make ~count:300 ~name:"simplify preserves satisfiability" gen_formula
    (fun f -> Solver.is_sat f = Solver.is_sat (Formula.simplify f))

let prop_nnf_preserves_models =
  QCheck.Test.make ~count:300 ~name:"nnf preserves satisfiability" gen_formula
    (fun f -> Solver.is_sat f = Solver.is_sat (Formula.nnf f))

let prop_negation_flips_validity =
  QCheck.Test.make ~count:200 ~name:"f valid iff !f unsat" gen_formula (fun f ->
      Solver.is_valid f = Solver.is_unsat (Formula.negate f))

(* ------------------------------------------------------------------ *)
(* Hash-consed core: interning invariants                              *)
(* ------------------------------------------------------------------ *)

(* rebuild a formula bottom-up through the smart constructors; interning
   must hand back the very same nodes *)
let rec rebuild_term t =
  match Formula.term_view t with
  | Formula.T_var x -> Formula.tvar x
  | Formula.T_int n -> Formula.tint n
  | Formula.T_bool b2 -> Formula.tbool b2
  | Formula.T_str s -> Formula.tstr s
  | Formula.T_null -> Formula.tnull

and rebuild f =
  match Formula.view f with
  | Formula.True -> Formula.tru
  | Formula.False -> Formula.fls
  | Formula.Atom a ->
      Formula.atom a.Formula.rel (rebuild_term a.Formula.lhs)
        (rebuild_term a.Formula.rhs)
  | Formula.Not g -> Formula.negate (rebuild g)
  | Formula.And fs -> Formula.conj (List.map rebuild fs)
  | Formula.Or fs -> Formula.disj (List.map rebuild fs)

let prop_equal_iff_physical =
  QCheck.Test.make ~count:300 ~name:"structural equality = physical equality"
    gen_formula (fun f ->
      let g = rebuild f in
      g == f && Formula.equal f g && Formula.hash f = Formula.hash g
      && Formula.compare f g = 0 && Formula.id f = Formula.id g)

let prop_equal_agrees_with_compare =
  QCheck.Test.make ~count:300 ~name:"equal f g iff compare f g = 0"
    (QCheck.pair gen_formula gen_formula) (fun (f, g) ->
      Formula.equal f g = (Formula.compare f g = 0)
      && Formula.equal f g = (f == g))

let test_atoms_first_occurrence_order () =
  let a1 = Formula.eq (v "ao_x") (i 1) in
  let a2 = Formula.lt (v "ao_y") (i 2) in
  let a3 = Formula.bvar "ao_p" in
  (* a2 appears first (inside the disjunction), then a1, then a3; the
     duplicate a1 must not appear twice *)
  let f = Formula.(conj [ disj [ a2; a1 ]; negate a3; a1 ]) in
  Alcotest.(check (list string))
    "canon atoms in first-occurrence order, deduped"
    [ "ao_y < 2"; "ao_x == 1"; "ao_p == true" ]
    (List.map Formula.atom_to_string (Formula.atoms f));
  (* memoized on the interned node: same list, physically *)
  Alcotest.(check bool) "atoms memoized per node" true
    (Formula.atoms f == Formula.atoms f)

let render_verdict = function
  | Solver.Sat m -> "sat " ^ Solver.model_to_string m
  | Solver.Unsat -> "unsat"
  | Solver.Unknown reason -> "unknown " ^ reason

(* ------------------------------------------------------------------ *)
(* Pre-solver fast path: abstract domain + BCP soundness                *)
(* ------------------------------------------------------------------ *)

(* Run [f] with the fast path pinned off, so a property checks against
   the genuine DPLL(T) search rather than Absdom agreeing with itself. *)
let with_fastpath_off f =
  Solver.set_fastpath_enabled false;
  Fun.protect ~finally:(fun () -> Solver.set_fastpath_enabled true) f

(* Absdom.refute is the Unsat-only entry the solver drives: a refuted
   formula is also unsat by brute force over the generator's domain. *)
let prop_absdom_refute_sound =
  QCheck.Test.make ~count:500 ~name:"Absdom.refute only refutes unsat formulas"
    gen_formula (fun f ->
      (not (Absdom.refute f)) || not (brute_force_sat f))

(* The root-BCP rung: if unit propagation alone closes the root, the
   formula really is unsat. *)
let prop_bcp_refutes_sound =
  QCheck.Test.make ~count:500 ~name:"root BCP only refutes unsat formulas"
    gen_formula (fun f ->
      (not (Solver.bcp_refutes f)) || not (brute_force_sat f))

(* The whole ladder is invisible in answers: verdict and model rendered
   byte-identical with the fast path on vs off. *)
let prop_fastpath_verdicts_identical =
  QCheck.Test.make ~count:500
    ~name:"fast path on vs off: byte-identical verdicts" gen_formula (fun f ->
      let off = with_fastpath_off (fun () -> Solver.solve f) in
      Solver.set_fastpath_enabled true;
      let on_ = Solver.solve f in
      render_verdict off = render_verdict on_)

let test_absdom_interval_conflict () =
  (* x > 5 && x < 3: empty interval, refuted without any search *)
  let f = Formula.(conj [ gt (v "x") (i 5); lt (v "x") (i 3) ]) in
  Alcotest.(check bool) "empty interval refuted" true (Absdom.refute f);
  (* x > 3 && x < 5: the interval {4} is not empty *)
  let g = Formula.(conj [ gt (v "x") (i 3); lt (v "x") (i 5) ]) in
  Alcotest.(check bool) "non-empty interval not refuted" false (Absdom.refute g)

let test_absdom_var_var_unknown () =
  (* x < y constrains two unbounded variables: out of the domain's
     reach, so it must not claim a refutation *)
  let f = Formula.(lt (v "x") (v "y")) in
  Alcotest.(check bool) "var-var order not refuted" false (Absdom.refute f)

let suite =
  [
    ( "smt.formula",
      [
        Alcotest.test_case "simplify constants" `Quick test_simplify_constants;
        Alcotest.test_case "simplify complementary" `Quick test_simplify_complementary;
        Alcotest.test_case "simplify dedup" `Quick test_simplify_dedup;
        Alcotest.test_case "nnf removes Not" `Quick test_nnf_no_not;
        Alcotest.test_case "canonical atoms" `Quick test_canon_atom;
        Alcotest.test_case "atoms: first-occurrence order, memoized" `Quick
          test_atoms_first_occurrence_order;
      ] );
    ( "smt.theory",
      [
        Alcotest.test_case "equality chain conflict" `Quick test_theory_eq_chain_conflict;
        Alcotest.test_case "equality chain ok" `Quick test_theory_eq_chain_ok;
        Alcotest.test_case "disequality conflict" `Quick test_theory_neq_conflict;
        Alcotest.test_case "null vs const" `Quick test_theory_null_vs_const;
        Alcotest.test_case "bound cycle" `Quick test_theory_bounds_conflict;
        Alcotest.test_case "tight bounds force equality" `Quick test_theory_bounds_tight;
        Alcotest.test_case "transitive bounds" `Quick test_theory_bounds_transitive;
        Alcotest.test_case "equality propagates bounds" `Quick test_theory_eq_propagates_bounds;
        Alcotest.test_case "negated literal" `Quick test_theory_negated_literal;
        Alcotest.test_case "ill-sorted ordering" `Quick test_theory_sort_conflict;
      ] );
    ( "smt.solver",
      [
        Alcotest.test_case "sat" `Quick test_solver_sat_simple;
        Alcotest.test_case "unsat" `Quick test_solver_unsat_simple;
        Alcotest.test_case "disjunction" `Quick test_solver_disjunction;
        Alcotest.test_case "validity" `Quick test_solver_validity;
        Alcotest.test_case "entailment" `Quick test_solver_entails;
        Alcotest.test_case "equivalence" `Quick test_solver_equivalence;
      ] );
    ( "smt.fastpath",
      [
        Alcotest.test_case "interval conflict refuted" `Quick
          test_absdom_interval_conflict;
        Alcotest.test_case "var-var order stays unknown" `Quick
          test_absdom_var_var_unknown;
        QCheck_alcotest.to_alcotest prop_absdom_refute_sound;
        QCheck_alcotest.to_alcotest prop_bcp_refutes_sound;
        QCheck_alcotest.to_alcotest prop_fastpath_verdicts_identical;
      ] );
    ( "smt.paper_example",
      [
        Alcotest.test_case "null session trace violates" `Quick test_paper_example_null_trace;
        Alcotest.test_case "missing ttl check violates" `Quick test_paper_example_missing_ttl;
        Alcotest.test_case "full guard verifies" `Quick test_paper_example_full_guard;
        Alcotest.test_case "stronger guard verifies" `Quick test_paper_example_stronger_guard;
        Alcotest.test_case "direct check misses" `Quick test_direct_check_misses_missing_ttl;
      ] );
    ( "smt.properties",
      [
        QCheck_alcotest.to_alcotest prop_solver_agrees_with_brute_force;
        QCheck_alcotest.to_alcotest prop_simplify_preserves_models;
        QCheck_alcotest.to_alcotest prop_nnf_preserves_models;
        QCheck_alcotest.to_alcotest prop_negation_flips_validity;
        QCheck_alcotest.to_alcotest prop_equal_iff_physical;
        QCheck_alcotest.to_alcotest prop_equal_agrees_with_compare;
      ] );
  ]
