(* Sound abstract pre-solver over interned formulas.

   Derives per-variable facts (integer interval, pinned constant,
   forbidden constants — which subsumes null/not-null) from the
   formula's top-level literal conjuncts, then evaluates the whole
   formula in Kleene three-valued logic under those facts.  Everything
   here mirrors a rule the DPLL(T) theory checker (theory.ml) enforces,
   so a definite answer is always the answer the full solver would
   reach:

   - a Conflict during derivation means the conjunct literals alone are
     theory-inconsistent (two distinct pinned constants, a pin inside
     the forbidden set, an empty interval, an ill-sorted order literal,
     a boolean excluded from both truth values, x != x / x < x);
   - an atom evaluates to [Some true] only when no theory-consistent
     extension of the conjunct facts can decide it false (and dually
     for [Some false]).  Kleene And/Or/Not preserve those one-sided
     bounds, so the formula evaluating to [Some false] proves that no
     consistent assignment satisfies the boolean skeleton: Unsat.

   The domain only ever refutes; it never claims Sat.  [refute] is
   memoized on the simplified formula's hash-cons id. *)

exception Conflict

(* per-variable abstract facts, all derived from asserted conjuncts *)
type fact = {
  mutable lo : int option; (* integer lower bound, inclusive *)
  mutable hi : int option; (* integer upper bound, inclusive *)
  mutable eqc : Formula.value option; (* pinned constant *)
  mutable neqc : Formula.value list; (* forbidden constants *)
}

let is_int_value = function Formula.V_int _ -> true | _ -> false

(* A [fact] invariant re-check after every update; every rule here is a
   genuine theory inconsistency on the asserted literals. *)
let recheck (r : fact) =
  (match r.eqc with
  | Some c ->
      if List.mem c r.neqc then raise Conflict;
      (match (c, r.lo, r.hi) with
      | _, None, None -> ()
      | Formula.V_int n, lo, hi ->
          (match lo with Some l when n < l -> raise Conflict | _ -> ());
          (match hi with Some h when n > h -> raise Conflict | _ -> ())
      (* bounds come from order literals: a non-int pin is ill-sorted *)
      | _, _, _ -> raise Conflict)
  | None -> ());
  (match (r.lo, r.hi) with
  | Some l, Some h when l > h -> raise Conflict
  | Some l, Some h when l = h && List.mem (Formula.V_int l) r.neqc ->
      raise Conflict
  | _ -> ());
  (* boolean finite domain: excluded from both truth values *)
  if List.mem (Formula.V_bool true) r.neqc
     && List.mem (Formula.V_bool false) r.neqc
  then
    match r.eqc with Some (Formula.V_bool _) -> () | _ -> raise Conflict

let min_opt o k = Some (match o with None -> k | Some v -> min v k)
let max_opt o k = Some (match o with None -> k | Some v -> max v k)

(* record [var rel const] *)
let add_const_fact (r : fact) (rel : Formula.rel) (c : Formula.value) =
  (match rel with
  | Formula.Req -> (
      match r.eqc with
      | Some c' when c' <> c -> raise Conflict
      | _ -> r.eqc <- Some c)
  | Formula.Rneq -> if not (List.mem c r.neqc) then r.neqc <- c :: r.neqc
  | Formula.Rlt | Formula.Rle | Formula.Rgt | Formula.Rge -> (
      match c with
      | Formula.V_int k -> (
          match rel with
          | Formula.Rlt -> r.hi <- min_opt r.hi (k - 1)
          | Formula.Rle -> r.hi <- min_opt r.hi k
          | Formula.Rgt -> r.lo <- max_opt r.lo (k + 1)
          | Formula.Rge -> r.lo <- max_opt r.lo k
          | _ -> assert false)
      (* order literal against a non-int constant: ill-sorted *)
      | _ -> raise Conflict));
  recheck r

(* ground [const rel const] *)
let const_holds (rel : Formula.rel) (a : Formula.value) (b : Formula.value) =
  match rel with
  | Formula.Req -> a = b
  | Formula.Rneq -> a <> b
  | _ -> (
      match (a, b) with
      | Formula.V_int x, Formula.V_int y -> (
          match rel with
          | Formula.Rlt -> x < y
          | Formula.Rle -> x <= y
          | Formula.Rgt -> x > y
          | Formula.Rge -> x >= y
          | _ -> assert false)
      (* asserted ill-sorted order literal *)
      | _ -> raise Conflict)

(* Gather facts from the formula's literal conjuncts (polarity walk:
   And under +, Or under -, Not flips).  Raises [Conflict] when the conjuncts alone are
   theory-inconsistent. *)
let literal_facts (f : Formula.t) : (string, fact) Hashtbl.t =
  let facts : (string, fact) Hashtbl.t = Hashtbl.create 16 in
  let get v =
    match Hashtbl.find_opt facts v with
    | Some r -> r
    | None ->
        let r = { lo = None; hi = None; eqc = None; neqc = [] } in
        Hashtbl.add facts v r;
        r
  in
  let note_literal pol (a : Formula.atom) =
    let rel = if pol then a.Formula.rel else Formula.negate_rel a.Formula.rel in
    match (Formula.term_view a.Formula.lhs, Formula.term_view a.Formula.rhs) with
    | Formula.T_var x, Formula.T_var y ->
        if String.equal x y then (
          match rel with
          | Formula.Req | Formula.Rle | Formula.Rge -> ()
          | Formula.Rneq | Formula.Rlt | Formula.Rgt -> raise Conflict)
        (* var-var facts would need a relational domain: stay imprecise *)
    | Formula.T_var x, _ ->
        add_const_fact (get x) rel
          (Option.get (Formula.value_of_term [] a.Formula.rhs))
    | _, Formula.T_var y ->
        add_const_fact (get y) (Formula.flip_rel rel)
          (Option.get (Formula.value_of_term [] a.Formula.lhs))
    | _, _ ->
        let va = Option.get (Formula.value_of_term [] a.Formula.lhs)
        and vb = Option.get (Formula.value_of_term [] a.Formula.rhs) in
        if not (const_holds rel va vb) then raise Conflict
  in
  let rec walk pol f =
    match Formula.view f with
    | Formula.True -> if not pol then raise Conflict
    | Formula.False -> if pol then raise Conflict
    | Formula.Atom a -> note_literal pol a
    | Formula.Not g -> walk (not pol) g
    | Formula.And gs -> if pol then List.iter (walk pol) gs
    | Formula.Or gs -> if not pol then List.iter (walk pol) gs
  in
  walk true f;
  facts

(* What the facts know about one side of an atom. *)
type range = {
  r_exact : Formula.value option; (* exact value in every model *)
  r_int : bool; (* integer-sorted in every model *)
  r_lo : int option; (* sound int bounds (only when [r_int]) *)
  r_hi : int option;
  r_forbid : Formula.value list;
}

let no_info =
  { r_exact = None; r_int = false; r_lo = None; r_hi = None; r_forbid = [] }

let side facts (t : Formula.term) : range =
  match Formula.term_view t with
  | Formula.T_var v -> (
      match Hashtbl.find_opt facts v with
      | None -> no_info
      | Some r -> (
          match r.eqc with
          | Some (Formula.V_int n) ->
              {
                r_exact = r.eqc;
                r_int = true;
                r_lo = Some n;
                r_hi = Some n;
                r_forbid = r.neqc;
              }
          | Some _ ->
              { no_info with r_exact = r.eqc; r_forbid = r.neqc }
          | None ->
              (* bound facts come from order literals, which force the
                 variable to be integer-sorted in any consistent model *)
              let is_int = r.lo <> None || r.hi <> None in
              {
                r_exact = None;
                r_int = is_int;
                r_lo = r.lo;
                r_hi = r.hi;
                r_forbid = r.neqc;
              }))
  | _ ->
      let v = Option.get (Formula.value_of_term [] t) in
      let b = match v with Formula.V_int n -> Some n | _ -> None in
      { r_exact = Some v; r_int = b <> None; r_lo = b; r_hi = b; r_forbid = [] }

let lt_opt a b = match (a, b) with Some x, Some y -> x < y | _ -> false
let le_opt a b = match (a, b) with Some x, Some y -> x <= y | _ -> false

(* [Some true]: the facts refute the atom's negation; [Some false]: the
   facts refute the atom itself; [None]: no one-sided refutation. *)
let katom facts (a : Formula.atom) : bool option =
  let keq lhs rhs (l : range) (r : range) =
    if Formula.term_equal lhs rhs then Some true
    else
      match (l.r_exact, r.r_exact) with
      | Some a, Some b -> Some (a = b)
      | Some v, None | None, Some v ->
          let other = if l.r_exact = None then l else r in
          if List.mem v other.r_forbid then Some false
          else if other.r_int && not (is_int_value v) then Some false
          else (
            match v with
            | Formula.V_int n
              when other.r_int
                   && (lt_opt (Some n) other.r_lo || lt_opt other.r_hi (Some n))
              ->
                Some false
            | _ -> None)
      | None, None ->
          if
            l.r_int && r.r_int
            && (lt_opt l.r_hi r.r_lo || lt_opt r.r_hi l.r_lo)
          then Some false
          else None
  in
  (* [lhs < rhs] when [strict], else [lhs <= rhs] *)
  let korder ~strict lhs rhs (l : range) (r : range) =
    let non_int s =
      match s.r_exact with Some v -> not (is_int_value v) | None -> false
    in
    if non_int l || non_int r then
      (* an order atom touching a known non-integer value is ill-sorted
         whichever way it is decided; claiming false is sound *)
      Some false
    else if Formula.term_equal lhs rhs then Some (not strict)
    else if strict then
      if lt_opt l.r_hi r.r_lo then Some true
      else if le_opt r.r_hi l.r_lo then Some false
      else None
    else if le_opt l.r_hi r.r_lo then Some true
    else if lt_opt r.r_hi l.r_lo then Some false
    else None
  in
  let l = side facts a.Formula.lhs and r = side facts a.Formula.rhs in
  match a.Formula.rel with
  | Formula.Req -> keq a.Formula.lhs a.Formula.rhs l r
  | Formula.Rneq -> Option.map not (keq a.Formula.lhs a.Formula.rhs l r)
  | Formula.Rlt -> korder ~strict:true a.Formula.lhs a.Formula.rhs l r
  | Formula.Rle -> korder ~strict:false a.Formula.lhs a.Formula.rhs l r
  | Formula.Rgt -> korder ~strict:true a.Formula.rhs a.Formula.lhs r l
  | Formula.Rge -> korder ~strict:false a.Formula.rhs a.Formula.lhs r l

let kand x y =
  match (x, y) with
  | Some false, _ | _, Some false -> Some false
  | Some true, v | v, Some true -> v
  | None, None -> None

let kor x y =
  match (x, y) with
  | Some true, _ | _, Some true -> Some true
  | Some false, v | v, Some false -> v
  | None, None -> None

let rec keval facts (f : Formula.t) : bool option =
  match Formula.view f with
  | Formula.True -> Some true
  | Formula.False -> Some false
  | Formula.Atom a -> katom facts a
  | Formula.Not g -> Option.map not (keval facts g)
  | Formula.And gs ->
      List.fold_left
        (fun acc g ->
          if acc = Some false then acc else kand acc (keval facts g))
        (Some true) gs
  | Formula.Or gs ->
      List.fold_left
        (fun acc g -> if acc = Some true then acc else kor acc (keval facts g))
        (Some false) gs

(* ---- memoized refutation (the solver hot path) ---- *)

let refuted_uncached (f : Formula.t) : bool =
  match literal_facts f with
  | exception Conflict -> true
  | facts -> keval facts f = Some false

let memo_lock = Mutex.create ()
let memo : (int, bool) Hashtbl.t = Hashtbl.create 4096
let memo_cap = 1 lsl 16

let memo_find id =
  Mutex.lock memo_lock;
  let r = Hashtbl.find_opt memo id in
  Mutex.unlock memo_lock;
  r

let memo_store id v =
  Mutex.lock memo_lock;
  if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
  Hashtbl.replace memo id v;
  Mutex.unlock memo_lock

let refute (f : Formula.t) : bool =
  let f = Formula.simplify f in
  match Formula.view f with
  | Formula.True -> false
  | Formula.False -> true
  | _ -> (
      let id = Formula.id f in
      match memo_find id with
      | Some v -> v
      | None ->
          let v = refuted_uncached f in
          memo_store id v;
          v)

let memo_size () =
  Mutex.lock memo_lock;
  let n = Hashtbl.length memo in
  Mutex.unlock memo_lock;
  n

let reset_memo () =
  Mutex.lock memo_lock;
  Hashtbl.reset memo;
  Mutex.unlock memo_lock
