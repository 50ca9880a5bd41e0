(** Theory solver: decides consistency of a *conjunction of literals*.

    The fragment is what low-level semantics need (paper §3.1):

    - equality/disequality between variables and constants of any sort
      (ints, bools, strings, [null]), decided by congruence-free
      union-find (terms are flat, so no congruence closure is needed);
    - integer order constraints ([x < y], [x <= 3], ...), decided as
      difference-bound constraints with a Floyd–Warshall closure
      (every constraint is of the form [t1 - t2 <= c] over term nodes,
      with a distinguished ZERO node for constants).

    Mixed-sort comparisons (e.g. ordering strings) make the literal set
    inconsistent, mirroring how Z3 would reject ill-sorted formulas;
    subject-system rules never produce them. *)

type lit = { atom : Formula.atom; sign : bool }

let lit (sign : bool) (atom : Formula.atom) : lit = { atom; sign }

(* effective relation of a literal *)
let rel_of (l : lit) : Formula.rel =
  if l.sign then l.atom.Formula.rel else Formula.negate_rel l.atom.Formula.rel

(* the sort rule: only a variable or an int constant may be ordered *)
let orderable (t : Formula.term) : bool =
  match Formula.term_view t with
  | Formula.T_var _ | Formula.T_int _ -> true
  | Formula.T_bool _ | Formula.T_str _ | Formula.T_null -> false

let ill_sorted_atom (a : Formula.atom) : bool =
  match a.Formula.rel with
  | Formula.Req | Formula.Rneq -> false
  | Formula.Rlt | Formula.Rle | Formula.Rgt | Formula.Rge ->
      not (orderable a.Formula.lhs && orderable a.Formula.rhs)

(** The atoms of [f] that order a bool, string or null constant.  Either
    polarity of such an atom is an order literal, so any conjunction
    holding it is inconsistent under {!consistent}'s sort rule. *)
let ill_sorted (f : Formula.t) : Formula.atom list =
  List.filter ill_sorted_atom (Formula.atoms f)

(* ------------------------------------------------------------------ *)
(* Node table: terms to dense ids                                      *)
(* ------------------------------------------------------------------ *)

(* Interned terms carry a process-global unique id, so the dense-id
   lookup is one O(1) hash probe instead of the old linear scan. *)
type node_table = {
  ids : (int, int) Hashtbl.t;  (** [Formula.term_id] -> dense id *)
  mutable nodes : Formula.term array;  (** dense id -> term *)
  mutable count : int;
}

let node_table () = { ids = Hashtbl.create 16; nodes = [||]; count = 0 }

let node_id (tbl : node_table) (t : Formula.term) : int =
  match Hashtbl.find_opt tbl.ids (Formula.term_id t) with
  | Some id -> id
  | None ->
      if tbl.count >= Array.length tbl.nodes then begin
        let grown = Array.make (max 8 (2 * tbl.count)) t in
        Array.blit tbl.nodes 0 grown 0 tbl.count;
        tbl.nodes <- grown
      end;
      tbl.nodes.(tbl.count) <- t;
      Hashtbl.add tbl.ids (Formula.term_id t) tbl.count;
      tbl.count <- tbl.count + 1;
      tbl.count - 1

let node_term (tbl : node_table) (id : int) : Formula.term = tbl.nodes.(id)

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)
(* ------------------------------------------------------------------ *)

type uf = int array

let uf_create n : uf = Array.init n (fun i -> i)

let rec uf_find (u : uf) i = if u.(i) = i then i else (
  let r = uf_find u u.(i) in
  u.(i) <- r;
  r)

let uf_union (u : uf) i j =
  let ri = uf_find u i and rj = uf_find u j in
  if ri <> rj then u.(ri) <- rj

(* ------------------------------------------------------------------ *)
(* Consistency check                                                   *)
(* ------------------------------------------------------------------ *)

let is_const (t : Formula.term) =
  match Formula.term_view t with
  | Formula.T_int _ | Formula.T_bool _ | Formula.T_str _ | Formula.T_null -> true
  | Formula.T_var _ -> false

let const_conflict (a : Formula.term) (b : Formula.term) : bool =
  (* two constants that denote distinct values *)
  is_const a && is_const b && not (Formula.term_equal a b)

exception Inconsistent

(* What deciding a literal set leaves behind, for {!valuation}: the
   node table, the equality classes, each class's constant, and the
   closed difference-bound matrix (over nodes [0..n-1] plus [ZERO] at
   index [n]) when the set holds an order literal. *)
type closure = {
  c_tbl : node_table;
  c_uf : uf;
  c_const : Formula.term option array;  (** class rep -> its constant *)
  c_lits : (lit * int * int) list;  (** literal, lhs node, rhs node *)
  c_dist : int array array option;
}

let inf = max_int / 4

(* Decide [lits]; raises [Inconsistent].  The procedure is sound and
   complete for the supported fragment (flat terms; int order
   constraints; cross-sort equalities). *)
let close (lits : lit list) : closure =
  let tbl = node_table () in
  (* intern all terms *)
  let interned =
    List.map
      (fun l ->
        let i = node_id tbl l.atom.Formula.lhs in
        let j = node_id tbl l.atom.Formula.rhs in
        (l, i, j))
      lits
  in
  let n = tbl.count in
  let u = uf_create n in
  (* 1. process equalities *)
  List.iter
    (fun (l, i, j) -> if rel_of l = Formula.Req then uf_union u i j)
    interned;
  (* 2. each class must not contain two distinct constants *)
  let class_const = Array.make n None in
  for i = 0 to n - 1 do
    let t = node_term tbl i in
    if is_const t then begin
      let r = uf_find u i in
      match class_const.(r) with
      | None -> class_const.(r) <- Some t
      | Some t' -> if const_conflict t t' then raise Inconsistent
    end
  done;
  (* 3. disequalities must split classes *)
  List.iter
    (fun (l, i, j) ->
      if rel_of l = Formula.Rneq && uf_find u i = uf_find u j then raise Inconsistent)
    interned;
  (* 3b. boolean finite domain.  In the (typed) source language a term
     compared against a bool constant is itself boolean, so a class
     that is disequal to both [true] and [false] (and does not already
     contain a bool constant) has an empty domain. *)
  let deq_bools = Hashtbl.create 8 in
  List.iter
    (fun (l, i, j) ->
      if rel_of l = Formula.Rneq then begin
        let note id other =
          (* the other side denotes a bool constant if its class holds one *)
          match Option.map Formula.term_view class_const.(uf_find u other) with
          | Some (Formula.T_bool bv) ->
              let r = uf_find u id in
              let seen = try Hashtbl.find deq_bools r with Not_found -> [] in
              if not (List.mem bv seen) then Hashtbl.replace deq_bools r (bv :: seen)
          | Some _ | None -> ()
        in
        note i j;
        note j i
      end)
    interned;
  Hashtbl.iter
    (fun r bools ->
      if List.mem true bools && List.mem false bools then
        match Option.map Formula.term_view class_const.(r) with
        | Some (Formula.T_bool _) ->
            (* contains a bool constant and is disequal to it: already
               caught by step 3 if it is the same constant; a class
               holding [true] that is disequal to [false] is fine. *)
            ()
        | Some _ | None -> raise Inconsistent)
    deq_bools;
  (* 4. integer order constraints as difference bounds on class reps.
     dist.(i).(j) = c encodes  term_i - term_j <= c. *)
  let order_lits =
    List.filter
      (fun (l, _, _) ->
        match rel_of l with
        | Formula.Rlt | Formula.Rle | Formula.Rgt | Formula.Rge -> true
        | Formula.Req | Formula.Rneq -> false)
      interned
  in
  let int_eq_lits =
    (* equalities between int-sorted terms also induce bounds *)
    List.filter
      (fun (l, i, j) ->
        rel_of l = Formula.Req
        &&
        let int_term id =
          match Formula.term_view (node_term tbl id) with
          | Formula.T_int _ -> true
          | Formula.T_var _ -> true (* variables may be ints *)
          | _ -> false
        in
        int_term i && int_term j)
      interned
  in
  let dist =
    if order_lits = [] then None
    else begin
      (* sort check: order constraints only over int-sorted terms — a
         participant that is (or is forced equal to) a bool/str/null
         constant makes the conjunction ill-sorted *)
      List.iter
        (fun (_, i, j) ->
          let ok id =
            orderable (node_term tbl id)
            &&
            match Option.map Formula.term_view class_const.(uf_find u id) with
            | Some (Formula.T_bool _ | Formula.T_str _ | Formula.T_null) -> false
            | Some (Formula.T_int _ | Formula.T_var _) | None -> true
          in
          if not (ok i && ok j) then raise Inconsistent)
        order_lits;
      let zero = n in
      let m = n + 1 in
      let dist = Array.make_matrix m m inf in
      for i = 0 to m - 1 do
        dist.(i).(i) <- 0
      done;
      let add_edge i j c = if c < dist.(i).(j) then dist.(i).(j) <- c in
      (* constants pin their node to ZERO *)
      for i = 0 to n - 1 do
        match Formula.term_view (node_term tbl i) with
        | Formula.T_int v ->
            add_edge i zero v;
            add_edge zero i (-v)
        | Formula.T_var _ | Formula.T_bool _ | Formula.T_str _ | Formula.T_null -> ()
      done;
      (* equal classes share bounds: rep edges both ways with 0 *)
      List.iter
        (fun (_, i, j) ->
          add_edge i j 0;
          add_edge j i 0)
        int_eq_lits;
      List.iter
        (fun (l, i, j) ->
          match rel_of l with
          | Formula.Rlt -> add_edge i j (-1) (* i - j <= -1 *)
          | Formula.Rle -> add_edge i j 0
          | Formula.Rgt -> add_edge j i (-1)
          | Formula.Rge -> add_edge j i 0
          | Formula.Req | Formula.Rneq -> ())
        order_lits;
      (* Floyd–Warshall *)
      for k = 0 to m - 1 do
        for i = 0 to m - 1 do
          for j = 0 to m - 1 do
            if dist.(i).(k) + dist.(k).(j) < dist.(i).(j) then
              dist.(i).(j) <- dist.(i).(k) + dist.(k).(j)
          done
        done
      done;
      (* negative cycle -> unsat *)
      for i = 0 to m - 1 do
        if dist.(i).(i) < 0 then raise Inconsistent
      done;
      (* disequalities between int terms forced equal by bounds *)
      List.iter
        (fun (l, i, j) ->
          if
            rel_of l = Formula.Rneq
            && dist.(i).(j) <= 0
            && dist.(j).(i) <= 0
          then raise Inconsistent)
        interned;
      Some dist
    end
  in
  { c_tbl = tbl; c_uf = u; c_const = class_const; c_lits = interned; c_dist = dist }

(** [consistent lits] decides whether the conjunction of [lits] has a
    model. *)
let consistent (lits : lit list) : bool =
  match close lits with _ -> true | exception Inconsistent -> false

(* ------------------------------------------------------------------ *)
(* One satisfying valuation                                            *)
(* ------------------------------------------------------------------ *)

(* The sort a value must take: a class's constant decides it; an order
   literal makes it an int; otherwise the first constant it is disequal
   to (a class compared only against [null] is an object, rendered as
   an opaque marker).  Unconstrained classes take fresh ints. *)
type sort = S_int | S_bool | S_str | S_obj

let sort_of_const (t : Formula.term) : sort =
  match Formula.term_view t with
  | Formula.T_bool _ -> S_bool
  | Formula.T_str _ -> S_str
  | Formula.T_null -> S_obj
  | Formula.T_int _ | Formula.T_var _ -> S_int

let value_of_const (t : Formula.term) : Formula.value option =
  match Formula.term_view t with
  | Formula.T_int n -> Some (Formula.V_int n)
  | Formula.T_bool b -> Some (Formula.V_bool b)
  | Formula.T_str s -> Some (Formula.V_str s)
  | Formula.T_null -> Some Formula.V_null
  | Formula.T_var _ -> None

(* candidate [k] of a non-int sort, most natural first *)
let candidate (s : sort) (k : int) : Formula.value option =
  match s with
  | S_bool -> if k < 2 then Some (Formula.V_bool (k = 1)) else None
  | S_str -> Some (Formula.V_str (Printf.sprintf "s%d" k))
  | S_obj -> Some (Formula.V_str (if k = 0 then "<obj>" else Printf.sprintf "<obj%d>" k))
  | S_int -> Some (Formula.V_int k)

(** One valuation of the variables of [lits] under which every literal
    holds, or [None] when the set is inconsistent or the search below
    finds none.  Classes with a constant take it; the others are valued
    one at a time, depth first, from a few candidates each: an int
    within its closed difference bounds (each fixed value re-closing the
    bounds of the rest), and every value clear of the classes it must
    differ from. *)
let valuation (lits : lit list) : (string * Formula.value) list option =
  match close lits with
  | exception Inconsistent -> None
  | c -> (
      let n = c.c_tbl.count in
      let rep i = uf_find c.c_uf i in
      let value = Array.make n None in
      for i = 0 to n - 1 do
        match c.c_const.(i) with
        | Some t -> value.(i) <- value_of_const t
        | None -> ()
      done;
      let diseq = Array.make n [] and ordered = Array.make n false in
      List.iter
        (fun (l, i, j) ->
          match rel_of l with
          | Formula.Rneq ->
              diseq.(rep i) <- rep j :: diseq.(rep i);
              diseq.(rep j) <- rep i :: diseq.(rep j)
          | Formula.Rlt | Formula.Rle | Formula.Rgt | Formula.Rge ->
              ordered.(rep i) <- true;
              ordered.(rep j) <- true
          | Formula.Req -> ())
        c.c_lits;
      let sort r =
        if ordered.(r) then S_int
        else
          match
            List.find_map (fun r' -> c.c_const.(r')) (List.rev diseq.(r))
          with
          | Some t -> sort_of_const t
          | None -> S_int
      in
      (* the closure adds unbounded entries without a guard, so a bound
         is real only well below [inf] *)
      let bounded d = d < inf / 2 in
      (* add [term_a - term_b <= w] to a closed matrix, keeping it closed *)
      let relax dist a b w =
        if w < dist.(a).(b) then
          for x = 0 to n do
            if bounded dist.(x).(a) then
              for y = 0 to n do
                if bounded dist.(b).(y) then
                  let via = dist.(x).(a) + w + dist.(b).(y) in
                  if via < dist.(x).(y) then dist.(x).(y) <- via
              done
          done
      in
      (* Candidate values of the class of node [i], most natural first,
         one more than there are disequalities (each can rule out a
         value, directly or through the bounds it squeezes).  An int
         walks up from its lower bound, else down from its upper one,
         else up from 0, within its bounds. *)
      let k =
        1 + List.length (List.filter (fun (l, _, _) -> rel_of l = Formula.Rneq) c.c_lits)
      in
      let candidates dist i =
        let r = rep i in
        match (sort r, dist) with
        | S_int, Some dist ->
            let zero = n in
            let below = bounded dist.(zero).(i) and above = bounded dist.(i).(zero) in
            let lo = - dist.(zero).(i) and hi = dist.(i).(zero) in
            List.init k (fun j -> if below then lo + j else if above then hi - j else j)
            |> List.filter (fun x -> (not below || x >= lo) && (not above || x <= hi))
            |> List.map (fun x -> Formula.V_int x)
        | s, _ -> List.filter_map (candidate s) (List.init k Fun.id)
      in
      (* depth first over the unvalued classes, one representative node
         each, within a node budget; an int value is fixed into a copy
         of the bounds *)
      let budget = ref 10_000 in
      let rec assign dist = function
        | [] -> true
        | i :: rest ->
            decr budget;
            if !budget < 0 then false
            else
              let r = rep i in
              let taken = List.filter_map (fun r' -> value.(r')) diseq.(r) in
              List.exists
                (fun v ->
                  (not (List.mem v taken))
                  &&
                  let dist =
                    match (v, dist) with
                    | Formula.V_int x, Some d when sort r = S_int ->
                        let d = Array.map Array.copy d in
                        relax d i n x;
                        relax d n i (-x);
                        Some d
                    | _ -> dist
                  in
                  value.(r) <- Some v;
                  assign dist rest || (value.(r) <- None; false))
                (candidates dist i)
      in
      let unvalued = List.filter (fun i -> rep i = i && value.(i) = None) (List.init n Fun.id) in
      if not (assign c.c_dist unvalued) then None
      else
        Some
          (List.filter_map
             (fun i ->
               match Formula.term_view (node_term c.c_tbl i) with
               | Formula.T_var x -> Option.map (fun v -> (x, v)) value.(rep i)
               | _ -> None)
             (List.init n Fun.id)))
