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

(** [consistent lits] decides whether the conjunction of [lits] has a
    model.  The procedure is sound and complete for the supported
    fragment (flat terms; int order constraints; cross-sort equalities). *)
let consistent (lits : lit list) : bool =
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
  if n = 0 then true
  else
    try
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
      if order_lits <> [] then begin
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
        let inf = max_int / 4 in
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
          interned
      end;
      true
    with Inconsistent -> false
