(** Quantifier-free formulas over implementation-local predicates.

    This is the checker-formula language of the paper (§3.1): low-level
    semantics restrict conditions to conjunctions/disjunctions of
    predicates over concrete state — state relations ([v = c]), null-ness
    ([s != null]), boolean observers ([s.closing == false]) and integer
    bounds ([s.ttl > 0]).  Variables are dotted paths such as
    ["session.closing"]; their types are implicit and enforced by the
    theory layer ({!Theory}).

    Terms and formulas are *hash-consed* ({!Core.Hc}): every smart
    constructor returns the maximally shared node, so physical equality
    coincides with structural equality and [equal]/[hash]/[compare] are
    O(1) over the per-node id and precomputed hash.  The tables are
    process-global and mutex-protected (safe under the engine's
    [--jobs N] domain pool).  Ids are interning-order-dependent and must
    never influence output ordering — [term_compare] and [canon_atom]
    stay structural for exactly that reason. *)

type rel = Req | Rneq | Rlt | Rle | Rgt | Rge

type term = { t_node : term_node; t_id : int; t_hash : int }

and term_node =
  | T_var of string  (** a state variable, e.g. ["s.ttl"] *)
  | T_int of int
  | T_bool of bool
  | T_str of string
  | T_null

type atom = { rel : rel; lhs : term; rhs : term }

type t = { f_node : f_node; f_id : int; f_hash : int }

and f_node =
  | True
  | False
  | Atom of atom
  | Not of t
  | And of t list
  | Or of t list

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

(* Deterministic hash mixing (structural: a node's hash is computed from
   its children's stored hashes, never from ids). *)
let comb h k = (h * 0x01000193) lxor k

(* Shallow equality: children are already interned, so one pointer
   comparison per child suffices. *)
let term_node_equal (n : term_node) (e : term) : bool =
  match (n, e.t_node) with
  | T_var x, T_var y -> x == y || String.equal x y
  | T_int m, T_int n -> m = n
  | T_bool p, T_bool q -> p = q
  | T_str s, T_str t -> String.equal s t
  | T_null, T_null -> true
  | (T_var _ | T_int _ | T_bool _ | T_str _ | T_null), _ -> false

let term_tbl : (term_node, term) Core.Hc.t =
  Core.Hc.create ~name:"smt.term" ~equal:term_node_equal
    ~build:(fun ~id ~hkey n -> { t_node = n; t_id = id; t_hash = hkey })
    ()

let intern_term hkey n = Core.Hc.intern term_tbl ~hkey n

let rel_code = function Req -> 0 | Rneq -> 1 | Rlt -> 2 | Rle -> 3 | Rgt -> 4 | Rge -> 5

let atom_shallow_equal (a : atom) (b : atom) : bool =
  a.rel = b.rel && a.lhs == b.lhs && a.rhs == b.rhs

let f_node_equal (n : f_node) (e : t) : bool =
  match (n, e.f_node) with
  | True, True | False, False -> true
  | Atom a, Atom b -> atom_shallow_equal a b
  | Not f, Not g -> f == g
  | And fs, And gs | Or fs, Or gs -> (
      try List.for_all2 (fun (f : t) g -> f == g) fs gs
      with Invalid_argument _ -> false)
  | (True | False | Atom _ | Not _ | And _ | Or _), _ -> false

let f_tbl : (f_node, t) Core.Hc.t =
  Core.Hc.create ~name:"smt.formula" ~equal:f_node_equal
    ~build:(fun ~id ~hkey n -> { f_node = n; f_id = id; f_hash = hkey })
    ()

let intern_f hkey n = Core.Hc.intern f_tbl ~hkey n

let hash_list seed fs = List.fold_left (fun h (f : t) -> comb h f.f_hash) seed fs

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let tvar x =
  let s = Core.Intern.get x in
  intern_term (comb 3 s.Core.Intern.sym_hash) (T_var s.Core.Intern.str)

let tint n = intern_term (comb 5 (Hashtbl.hash n)) (T_int n)

let tbool b = intern_term (comb 7 (if b then 1 else 0)) (T_bool b)

let tstr s = intern_term (comb 11 (Hashtbl.hash s)) (T_str s)

let tnull = intern_term (comb 13 0) T_null

let tru = intern_f 17 True

let fls = intern_f 19 False

let atom rel lhs rhs =
  intern_f
    (comb (comb (comb 23 (rel_code rel)) lhs.t_hash) rhs.t_hash)
    (Atom { rel; lhs; rhs })

let eq a b = atom Req a b

let neq a b = atom Rneq a b

let lt a b = atom Rlt a b

let le a b = atom Rle a b

let gt a b = atom Rgt a b

let ge a b = atom Rge a b

(** Boolean state variable asserted true: [v == true]. *)
let bvar x = eq (tvar x) (tbool true)

(* [And]/[Or] nodes always have >= 2 children: [conj]/[disj] are the only
   list constructors, so the empty and singleton shapes are unrepresentable. *)
let conj = function [] -> tru | [ f ] -> f | fs -> intern_f (hash_list 29 fs) (And fs)

let disj = function [] -> fls | [ f ] -> f | fs -> intern_f (hash_list 31 fs) (Or fs)

let negate f = intern_f (comb 37 f.f_hash) (Not f)

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

let view (f : t) : f_node = f.f_node

let term_view (t : term) : term_node = t.t_node

let id (f : t) : int = f.f_id

let term_id (t : term) : int = t.t_id

(* Maximal sharing makes physical equality sound: two formulas are
   structurally equal iff they are the same node. *)
let equal (f : t) (g : t) : bool = f == g

let hash (f : t) : int = f.f_hash

(* Id order is interning order — stable within a process, arbitrary
   across schedules.  For in-process table keying only. *)
let compare (f : t) (g : t) : int = Int.compare f.f_id g.f_id

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

(* Structural order (constructor rank, then payload) — deliberately NOT
   id order: [canon_atom] sorts operands with it, and that ordering must
   not depend on the interning schedule. *)
let term_compare (a : term) (b : term) : int =
  if a == b then 0
  else
    (* ranks reproduce the pre-interning polymorphic compare on the node
       variant: the constant constructor (T_null) sorts below every block
       constructor, then blocks by declaration order *)
    let rank = function
      | T_null -> 0
      | T_var _ -> 1
      | T_int _ -> 2
      | T_bool _ -> 3
      | T_str _ -> 4
    in
    match (a.t_node, b.t_node) with
    | T_var x, T_var y -> Stdlib.compare x y
    | T_int m, T_int n -> Stdlib.compare m n
    | T_bool p, T_bool q -> Stdlib.compare p q
    | T_str s, T_str t -> Stdlib.compare s t
    | T_null, T_null -> 0
    | x, y -> Stdlib.compare (rank x) (rank y)

let term_equal (a : term) (b : term) = a == b

(** Relation satisfied exactly when [rel] is not. *)
let negate_rel = function
  | Req -> Rneq
  | Rneq -> Req
  | Rlt -> Rge
  | Rle -> Rgt
  | Rgt -> Rle
  | Rge -> Rlt

(** Canonical form of an atom: symmetric relations get sorted operands;
    [>] and [>=] are rewritten to [<] / [<=].  Canonicalisation makes atom
    identity meaningful for the DPLL abstraction. *)
let canon_atom (a : atom) : atom =
  let a =
    match a.rel with
    | Rgt -> { rel = Rlt; lhs = a.rhs; rhs = a.lhs }
    | Rge -> { rel = Rle; lhs = a.rhs; rhs = a.lhs }
    | Req | Rneq | Rlt | Rle -> a
  in
  match a.rel with
  | (Req | Rneq) when term_compare a.lhs a.rhs > 0 -> { a with lhs = a.rhs; rhs = a.lhs }
  | Req | Rneq | Rlt | Rle | Rgt | Rge -> a

(* ------------------------------------------------------------------ *)
(* Node-keyed memo tables                                              *)
(* ------------------------------------------------------------------ *)

(* [atoms]/[nnf]/[simplify] are pure functions of the node, so their
   results can be memoized on the formula id.  Process-global and
   mutex-protected like the hash-cons tables; bounded by full reset
   (dropping a memo entry only costs recomputation — unlike the
   hash-cons tables themselves, eviction here is harmless). *)
let memo_cap = 1 lsl 16

let memo_lock = Mutex.create ()

let memo_find (tbl : (int, 'a) Hashtbl.t) (k : int) : 'a option =
  Mutex.lock memo_lock;
  let r = Hashtbl.find_opt tbl k in
  Mutex.unlock memo_lock;
  r

let memo_store (tbl : (int, 'a) Hashtbl.t) (k : int) (v : 'a) : unit =
  Mutex.lock memo_lock;
  if Hashtbl.length tbl >= memo_cap then Hashtbl.reset tbl;
  Hashtbl.replace tbl k v;
  Mutex.unlock memo_lock

let memoized (tbl : (int, 'a) Hashtbl.t) (f : t) (compute : unit -> 'a) : 'a =
  match memo_find tbl f.f_id with
  | Some r -> r
  | None ->
      let r = compute () in
      memo_store tbl f.f_id r;
      r

let atoms_tbl : (int, atom list) Hashtbl.t = Hashtbl.create 1024

let nnf_tbl : (int, t) Hashtbl.t = Hashtbl.create 1024

let simplify_tbl : (int, t) Hashtbl.t = Hashtbl.create 1024

(** All distinct canonical atoms of a formula, in first-occurrence order
    (the order is structural, so it is schedule-independent; the solver's
    branch ordering depends on it).  Memoized on the interned node. *)
let atoms (f : t) : atom list =
  memoized atoms_tbl f @@ fun () ->
  let acc = ref [] in
  let add a =
    let c = canon_atom a in
    if not (List.exists (fun x -> atom_shallow_equal x c) !acc) then acc := c :: !acc
  in
  let rec go g =
    match g.f_node with
    | True | False -> ()
    | Atom a -> add a
    | Not h -> go h
    | And fs | Or fs -> List.iter go fs
  in
  go f;
  List.rev !acc

(** Free state variables of a formula. *)
let variables (f : t) : string list =
  let acc = ref [] in
  let add_term t =
    match t.t_node with
    | T_var x -> if not (List.mem x !acc) then acc := x :: !acc
    | T_int _ | T_bool _ | T_str _ | T_null -> ()
  in
  List.iter
    (fun a ->
      add_term a.lhs;
      add_term a.rhs)
    (atoms f);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(** Concrete values for ground evaluation (used by tests to cross-check the
    solver against brute-force enumeration). *)
type value = V_int of int | V_bool of bool | V_str of string | V_null

let value_of_term (env : (string * value) list) (t : term) : value option =
  match t.t_node with
  | T_var x -> List.assoc_opt x env
  | T_int n -> Some (V_int n)
  | T_bool b -> Some (V_bool b)
  | T_str s -> Some (V_str s)
  | T_null -> Some V_null

let eval_atom (env : (string * value) list) (a : atom) : bool option =
  match (value_of_term env a.lhs, value_of_term env a.rhs) with
  | Some l, Some r -> (
      match a.rel with
      | Req -> Some (l = r)
      | Rneq -> Some (l <> r)
      | Rlt | Rle | Rgt | Rge -> (
          match (l, r) with
          | V_int x, V_int y ->
              Some
                (match a.rel with
                | Rlt -> x < y
                | Rle -> x <= y
                | Rgt -> x > y
                | Rge -> x >= y
                | Req | Rneq -> assert false)
          | _ -> None))
  | _ -> None

(** Ground evaluation; [None] when a variable is unbound or an order atom
    compares non-integers. *)
let rec eval (env : (string * value) list) (f : t) : bool option =
  match f.f_node with
  | True -> Some true
  | False -> Some false
  | Atom a -> eval_atom env a
  | Not g -> Option.map not (eval env g)
  | And fs ->
      List.fold_left
        (fun acc g ->
          match (acc, eval env g) with
          | Some false, _ -> Some false
          | _, Some false -> Some false
          | Some true, Some true -> Some true
          | _ -> None)
        (Some true) fs
  | Or fs ->
      List.fold_left
        (fun acc g ->
          match (acc, eval env g) with
          | Some true, _ -> Some true
          | _, Some true -> Some true
          | Some false, Some false -> Some false
          | _ -> None)
        (Some false) fs

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let term_to_string (t : term) =
  match t.t_node with
  | T_var x -> x
  | T_int n -> string_of_int n
  | T_bool true -> "true"
  | T_bool false -> "false"
  | T_str s -> Printf.sprintf "%S" s
  | T_null -> "null"

let rel_to_string = function
  | Req -> "=="
  | Rneq -> "!="
  | Rlt -> "<"
  | Rle -> "<="
  | Rgt -> ">"
  | Rge -> ">="

let atom_to_string (a : atom) =
  Fmt.str "%s %s %s" (term_to_string a.lhs) (rel_to_string a.rel) (term_to_string a.rhs)

let rec to_string (f : t) =
  match f.f_node with
  | True -> "true"
  | False -> "false"
  | Atom a -> atom_to_string a
  | Not g -> "!(" ^ to_string g ^ ")"
  | And fs -> "(" ^ String.concat " && " (List.map to_string fs) ^ ")"
  | Or fs -> "(" ^ String.concat " || " (List.map to_string fs) ^ ")"

(* ------------------------------------------------------------------ *)
(* Normal forms                                                        *)
(* ------------------------------------------------------------------ *)

(** Negation normal form: negations pushed onto atoms (then folded into the
    atom's relation, so the result contains no [Not] at all).  Memoized on
    the formula id. *)
let rec nnf (f : t) : t =
  memoized nnf_tbl f @@ fun () ->
  match f.f_node with
  | True | False | Atom _ -> f
  | And fs -> conj (List.map nnf fs)
  | Or fs -> disj (List.map nnf fs)
  | Not g -> (
      match g.f_node with
      | True -> fls
      | False -> tru
      | Atom a -> atom (negate_rel a.rel) a.lhs a.rhs
      | Not h -> nnf h
      | And fs -> disj (List.map (fun f -> nnf (negate f)) fs)
      | Or fs -> conj (List.map (fun f -> nnf (negate f)) fs))

(* Dedup by canonical-atom identity (physical once interned), preserving
   first occurrences. *)
let dedup fs =
  let key (g : t) =
    match g.f_node with
    | Atom a ->
        let c = canon_atom a in
        atom c.rel c.lhs c.rhs
    | True | False | Not _ | And _ | Or _ -> g
  in
  let rec go seen = function
    | [] -> []
    | g :: rest ->
        let k = key g in
        if List.memq k seen then go seen rest else g :: go (k :: seen) rest
  in
  go [] fs

let has_complementary fs =
  let lits =
    List.filter_map
      (fun (g : t) -> match g.f_node with Atom a -> Some (canon_atom a) | _ -> None)
      fs
  in
  List.exists
    (fun a ->
      let neg = canon_atom { a with rel = negate_rel a.rel } in
      List.exists (fun b -> atom_shallow_equal b neg) lits)
    lits

(** Basic simplification: constant folding, flattening of nested
    conjunctions/disjunctions, duplicate removal, and complementary-literal
    detection within one level.  Semantics-preserving.  Memoized on the
    formula id. *)
let rec simplify (f : t) : t =
  memoized simplify_tbl f @@ fun () ->
  match f.f_node with
  | True | False | Atom _ -> f
  | Not g -> (
      let g' = simplify g in
      match g'.f_node with
      | True -> fls
      | False -> tru
      | Atom a -> atom (negate_rel a.rel) a.lhs a.rhs
      | Not h -> h
      | And _ | Or _ -> negate g')
  | And fs ->
      let fs = List.map simplify fs in
      let fs =
        List.concat_map (fun (g : t) -> match g.f_node with And gs -> gs | _ -> [ g ]) fs
      in
      let fs = List.filter (fun g -> g != tru) fs in
      if List.exists (fun g -> g == fls) fs then fls
      else
        let fs = dedup fs in
        if has_complementary fs then fls else conj fs
  | Or fs ->
      let fs = List.map simplify fs in
      let fs =
        List.concat_map (fun (g : t) -> match g.f_node with Or gs -> gs | _ -> [ g ]) fs
      in
      let fs = List.filter (fun g -> g != fls) fs in
      if List.exists (fun g -> g == tru) fs then tru
      else
        let fs = dedup fs in
        if has_complementary fs then tru else disj fs

(* ------------------------------------------------------------------ *)
(* Intern-table statistics                                             *)
(* ------------------------------------------------------------------ *)

(* the term, formula and string tables, summed *)
let intern_sum (field : Core.Hc.stats -> int) : int =
  field (Core.Hc.stats term_tbl) + field (Core.Hc.stats f_tbl) + field (Core.Intern.stats ())

let intern_hits () = intern_sum (fun s -> s.Core.Hc.hits)

let intern_misses () = intern_sum (fun s -> s.Core.Hc.misses)

let intern_size () = intern_sum (fun s -> s.Core.Hc.size)

let () =
  let gauge = Telemetry.Metrics.gauge in
  gauge "core.intern.hits" intern_hits
    ~doc:"hash-cons hits over the term, formula and string tables";
  gauge "core.intern.misses" intern_misses ~doc:"fresh nodes interned";
  gauge "core.intern.size" intern_size
    ~doc:"live interned nodes (process-global, monotone: tables never evict)"
