(** Witness-replay triage: self-validating verdicts over checker findings.

    The checker reports every violating path, but the oracle that wrote
    the rule may have hallucinated its semantics (the noise model of
    {!Oracle.Inference} makes this concrete).  Following the
    Hitchhiker's-Guide recipe, each finding is put through a second,
    self-validation pass built on {e concrete witness generation}:

    1. the SMT [Sat] model of [pc /\ !checker] seeds a bounded
       case-split over the finding's state variables ({!synthesize});
    2. each synthesized valuation is replayed through the real MiniJava
       interpreter under a fuel budget — receiver and subject objects are
       materialized, fields set from the valuation, and the checker
       condition is re-evaluated on the {e runtime} state at every target
       arrival;
    3. the replay outcome is fused with two cheap consistency signals —
       whether the concretely-observed trace state already contradicts
       the checker (a rule that condemns states the system's own passing
       tests routinely produce) and whether the rule has any verified
       trace at all (the paper's §3.2 sanity requirement).

    The fusion yields a tier per finding: {!Witnessed} (a concrete
    execution reproduces the violation and the rule is consistent with
    observed behaviour), {!Consistent} (a model exists but replay was
    inconclusive or the budget ran out), {!Likely_fp} (replay refutes
    the finding, or the rule contradicts concretely-observed passing
    behaviour with no verified trace to its name).  Tiers only ever
    {e rank} findings — triage never deletes a report — so a disabled
    triage pass leaves every downstream byte identical. *)

open Minilang

type tier = Witnessed | Consistent | Likely_fp

let tier_to_string = function
  | Witnessed -> "witnessed"
  | Consistent -> "consistent"
  | Likely_fp -> "likely-fp"

let tier_of_string = function
  | "witnessed" -> Some Witnessed
  | "consistent" -> Some Consistent
  | "likely-fp" -> Some Likely_fp
  | _ -> None

(* findings per tier; counter-friendly spelling (dots and dashes don't
   mix in metric names) *)
let tier_counters =
  let declare name =
    Telemetry.Metrics.counter ("triage.tier." ^ name)
      ~doc:("findings triaged as " ^ name)
  in
  let witnessed = declare "witnessed" in
  let consistent = declare "consistent" in
  let likely_fp = declare "likely_fp" in
  [ (Witnessed, witnessed); (Consistent, consistent); (Likely_fp, likely_fp) ]

type config = {
  enabled : bool;
  replay_fuel : int;  (** interpreter fuel per replay attempt *)
  max_attempts : int;  (** witness valuations replayed per finding *)
  max_nodes : int;  (** case-split search nodes per finding *)
}

let default_config =
  { enabled = true; replay_fuel = 50_000; max_attempts = 8; max_nodes = 20_000 }

type finding = {
  f_rule_id : string;
  f_method : string;
  f_entry : string;  (** driving test; [""] for static lock findings *)
  f_target_sid : int;
  f_tier : tier;
  f_reason : string;  (** deterministic evidence summary *)
}

type triaged = {
  t_report : Engine.Checker.rule_report;
  t_findings : finding list;
      (** one per violation trace and lock finding; [] when triage is
          disabled or the report is clean *)
}

(* ------------------------------------------------------------------ *)
(* Bounded witness synthesis                                           *)
(* ------------------------------------------------------------------ *)

let wire_key = "w0"

module Smap = Map.Make (String)

(* What the formula's atoms say about a variable: used to build a typed,
   finite candidate domain per variable. *)
type var_facts = {
  mutable vf_ord : bool;  (** appears in an order atom *)
  mutable vf_ints : int list;  (** int constants compared against it *)
  mutable vf_bools : bool;  (** compared against a bool constant *)
  mutable vf_strs : string list;
  mutable vf_null : bool;  (** compared against null *)
  mutable vf_peers : string list;  (** variables compared against it *)
}

let fresh_facts () =
  {
    vf_ord = false;
    vf_ints = [];
    vf_bools = false;
    vf_strs = [];
    vf_null = false;
    vf_peers = [];
  }

let collect_facts (f : Smt.Formula.t) : var_facts Smap.t =
  let tbl = ref Smap.empty in
  let facts v =
    match Smap.find_opt v !tbl with
    | Some r -> r
    | None ->
        let r = fresh_facts () in
        tbl := Smap.add v r !tbl;
        r
  in
  let is_ord = function
    | Smt.Formula.Rlt | Smt.Formula.Rle | Smt.Formula.Rgt | Smt.Formula.Rge ->
        true
    | Smt.Formula.Req | Smt.Formula.Rneq -> false
  in
  List.iter
    (fun (a : Smt.Formula.atom) ->
      let note v (other : Smt.Formula.term) =
        let r = facts v in
        (* an order atom marks the variable int-like only when the other
           side could be an int: ordering against null/bool/str is a
           type error the enumeration should not let poison the domain *)
        (if is_ord a.Smt.Formula.rel then
           match Smt.Formula.term_view other with
           | Smt.Formula.T_int _ | Smt.Formula.T_var _ -> r.vf_ord <- true
           | _ -> ());
        match Smt.Formula.term_view other with
        | Smt.Formula.T_int n -> r.vf_ints <- n :: r.vf_ints
        | Smt.Formula.T_bool _ -> r.vf_bools <- true
        | Smt.Formula.T_str s -> r.vf_strs <- s :: r.vf_strs
        | Smt.Formula.T_null -> r.vf_null <- true
        | Smt.Formula.T_var p -> r.vf_peers <- p :: r.vf_peers
      in
      match
        (Smt.Formula.term_view a.Smt.Formula.lhs,
         Smt.Formula.term_view a.Smt.Formula.rhs)
      with
      | Smt.Formula.T_var v, _ ->
          note v a.Smt.Formula.rhs;
          (match Smt.Formula.term_view a.Smt.Formula.rhs with
          | Smt.Formula.T_var w -> note w a.Smt.Formula.lhs
          | _ -> ())
      | _, Smt.Formula.T_var w -> note w a.Smt.Formula.lhs
      | _ -> ())
    (Smt.Formula.atoms f);
  !tbl

(** External type hints (e.g. from program declarations) for variables the
    formula itself leaves untyped. *)
type hint = H_int | H_bool | H_str | H_obj

(* Candidate values per variable, most-promising first.  Int domains pool
   every int constant of the whole formula (plus the off-by-one
   neighbours and 0/1), so var-vs-var order chains still find relative
   orderings within the pool. *)
let domains_of ?(hints = fun _ -> None) (f : Smt.Formula.t) :
    (string * Smt.Formula.value list) list =
  let facts = collect_facts f in
  let int_pool =
    let consts =
      Smap.fold (fun _ r acc -> r.vf_ints @ acc) facts []
      |> List.concat_map (fun c -> [ c - 1; c; c + 1 ])
    in
    List.sort_uniq compare (0 :: 1 :: consts)
  in
  let is_int v =
    match Smap.find_opt v facts with
    | Some r ->
        r.vf_ord || r.vf_ints <> []
        || List.exists
             (fun p ->
               match Smap.find_opt p facts with
               | Some q -> q.vf_ord || q.vf_ints <> []
               | None -> false)
             r.vf_peers
    | None -> false
  in
  List.map
    (fun v ->
      let r =
        match Smap.find_opt v facts with Some r -> r | None -> fresh_facts ()
      in
      (* a variable compared against several types (common in fuzzed or
         corrupted conditions) gets every applicable candidate set: a
         wrong guess three-values to None downstream, never to a false
         witness, so over-approximating the domain is always safe *)
      let dom =
        (if is_int v then List.map (fun n -> Smt.Formula.V_int n) int_pool
         else [])
        @ (if r.vf_bools then
             [ Smt.Formula.V_bool true; Smt.Formula.V_bool false ]
           else [])
        @ (if r.vf_strs <> [] then
             List.map
               (fun s -> Smt.Formula.V_str s)
               (List.sort_uniq compare r.vf_strs @ [ wire_key ])
           else [])
        @
        if r.vf_null then [ Smt.Formula.V_str "<obj>"; Smt.Formula.V_null ]
        else []
      in
      let dom =
        if dom <> [] then dom
        else
          match hints v with
          | Some H_int -> List.map (fun n -> Smt.Formula.V_int n) int_pool
          | Some H_bool -> [ Smt.Formula.V_bool false; Smt.Formula.V_bool true ]
          | Some H_str -> [ Smt.Formula.V_str wire_key ]
          | Some H_obj -> [ Smt.Formula.V_str "<obj>"; Smt.Formula.V_null ]
          | None ->
              (* untyped and unconstrained: a small mixed domain; wrong
                 guesses three-value to None downstream, never to a
                 false witness *)
              [
                Smt.Formula.V_int 0;
                Smt.Formula.V_int 1;
                Smt.Formula.V_str "<obj>";
                Smt.Formula.V_null;
              ]
      in
      (v, dom))
    (Smt.Formula.variables f)

(* Reorder a variable's candidates so values the SMT model pins come
   first: positive [v == k] (or refuted [v != k]) literals name the
   model's own witness. *)
let seed_from_model (model : (Smt.Formula.atom * bool) list)
    (v : string) (dom : Smt.Formula.value list) : Smt.Formula.value list =
  let pinned =
    List.filter_map
      (fun ((a : Smt.Formula.atom), sign) ->
        let eq_like =
          match (a.Smt.Formula.rel, sign) with
          | Smt.Formula.Req, true | Smt.Formula.Rneq, false -> true
          | _ -> false
        in
        if not eq_like then None
        else
          let const t =
            match Smt.Formula.term_view t with
            | Smt.Formula.T_int n -> Some (Smt.Formula.V_int n)
            | Smt.Formula.T_bool b -> Some (Smt.Formula.V_bool b)
            | Smt.Formula.T_str s -> Some (Smt.Formula.V_str s)
            | Smt.Formula.T_null -> Some Smt.Formula.V_null
            | Smt.Formula.T_var _ -> None
          in
          match
            (Smt.Formula.term_view a.Smt.Formula.lhs,
             Smt.Formula.term_view a.Smt.Formula.rhs)
          with
          | Smt.Formula.T_var x, _ when x = v -> const a.Smt.Formula.rhs
          | _, Smt.Formula.T_var x when x = v -> const a.Smt.Formula.lhs
          | _ -> None)
      model
  in
  let first = List.filter (fun c -> List.mem c pinned) dom in
  first @ List.filter (fun c -> not (List.mem c first)) dom

(** Bounded enumeration of concrete valuations satisfying [f], pruned by
    three-valued partial evaluation.  Returns the witnesses found (each
    satisfies [eval _ f = Some true]) and a completeness flag: [true] iff
    the whole candidate space was explored without hitting the node or
    attempt budget — only then may a caller conclude anything from an
    empty or violation-free replay sweep. *)
let synthesize ?(model = []) ?(hints = fun _ -> None) ~max_nodes ~max_attempts
    (f : Smt.Formula.t) : (string * Smt.Formula.value) list list * bool =
  let f = Smt.Formula.simplify f in
  let domains =
    List.map
      (fun (v, dom) -> (v, seed_from_model model v dom))
      (domains_of ~hints f)
  in
  let nodes = ref 0 in
  let budget_hit = ref false in
  let found = ref [] in
  let nfound = ref 0 in
  let rec dfs assigned = function
    | [] -> (
        match Smt.Formula.eval assigned f with
        | Some true ->
            if !nfound < max_attempts then begin
              found := assigned :: !found;
              incr nfound
            end
            else budget_hit := true
        | Some false | None -> ())
    | (v, cands) :: rest ->
        List.iter
          (fun c ->
            if (not !budget_hit) || !nfound < max_attempts then begin
              incr nodes;
              if !nodes > max_nodes then budget_hit := true
              else
                let assigned' = assigned @ [ (v, c) ] in
                match Smt.Formula.eval assigned' f with
                | Some false -> ()
                | Some true | None -> dfs assigned' rest
            end)
          cands
  in
  (match Smt.Formula.view f with
  | Smt.Formula.False -> ()
  | _ -> dfs [] domains);
  (List.rev !found, not !budget_hit)

(* ------------------------------------------------------------------ *)
(* Concrete replay                                                     *)
(* ------------------------------------------------------------------ *)

type attempt =
  | A_reproduced of (string * Smt.Formula.value) list
      (** the runtime env observed at the violating arrival *)
  | A_refuted  (** run completed; every target arrival satisfied checker *)
  | A_no_arrival  (** run completed without reaching the target *)
  | A_inconclusive of string

exception Stop_replay

let split_method (qname : string) : string option * string =
  match String.index_opt qname '.' with
  | Some i ->
      ( Some (String.sub qname 0 i),
        String.sub qname (i + 1) (String.length qname - i - 1) )
  | None -> (None, qname)

let split_var (v : string) : (string * string) option =
  match String.index_opt v '.' with
  | Some i ->
      Some (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1))
  | None -> None

let to_concrete (v : Value.t) : Smt.Formula.value =
  match v with
  | Value.V_int n -> Smt.Formula.V_int n
  | Value.V_bool b -> Smt.Formula.V_bool b
  | Value.V_str s -> Smt.Formula.V_str s
  | Value.V_null -> Smt.Formula.V_null
  | Value.V_ref _ -> Smt.Formula.V_str "<ref>"

let obj_of (st : Interp.state) (v : Value.t) : Value.obj option =
  match v with
  | Value.V_ref addr -> (
      match Value.heap_get st.Interp.heap addr with
      | Some (Value.C_obj o) -> Some o
      | Some _ | None -> None)
  | _ -> None

(* Declared-type hints for the bounded case-split: dotted variables read
   their class's field declaration, bare variables the target method's
   parameter list. *)
let program_hints (p : Ast.program) (md : Ast.method_decl option) (v : string)
    : hint option =
  let of_typ = function
    | Ast.T_int -> Some H_int
    | Ast.T_bool -> Some H_bool
    | Ast.T_str -> Some H_str
    | Ast.T_ref _ -> Some H_obj
    | Ast.T_map | Ast.T_list | Ast.T_void | Ast.T_any -> None
  in
  match split_var v with
  | Some (cls, fld) -> (
      match Ast.find_class p cls with
      | None -> None
      | Some c -> (
          match
            List.find_opt (fun (f : Ast.field_decl) -> f.Ast.f_name = fld)
              c.Ast.c_fields
          with
          | Some f -> of_typ f.Ast.f_typ
          | None -> None))
  | None -> (
      match Ast.find_class p v with
      | Some _ -> Some H_obj
      | None -> (
          match md with
          | None -> None
          | Some m -> (
              match List.assoc_opt v m.Ast.m_params with
              | Some ty -> of_typ ty
              | None -> None)))

(* One replay attempt: materialize receiver and subjects on a fresh
   interpreter state, install the valuation, and drive the finding's
   method; the statement hook re-evaluates the checker condition on live
   runtime state at every target arrival. *)
let replay_attempt (config : config) (p : Ast.program) ~(qname : string)
    ~(target_sid : int) ~(condition : Smt.Formula.t)
    (valuation : (string * Smt.Formula.value) list) : attempt =
  let cls_opt, meth = split_method qname in
  let cond_vars = Smt.Formula.variables condition in
  let val_vars = List.map fst valuation in
  (* classes whose state the witness constrains *)
  let subject_classes =
    List.filter_map
      (fun v ->
        match split_var v with
        | Some (cls, _) when Ast.find_class p cls <> None -> Some cls
        | _ -> (
            match Ast.find_class p v with Some _ -> Some v | None -> None))
      (List.sort_uniq compare (cond_vars @ val_vars))
    |> List.sort_uniq compare
  in
  let arrivals = ref [] in
  let violating_env = ref [] in
  let subjects = ref [] in
  let lookup_subject cls = List.assoc_opt cls !subjects in
  let interp_config = ref Interp.default_config in
  let st_ref = ref None in
  let runtime_env (st : Interp.state) : (string * Smt.Formula.value) list =
    List.filter_map
      (fun v ->
        match split_var v with
        | Some (cls, fld) -> (
            match lookup_subject cls with
            | Some sv -> (
                match obj_of st sv with
                | Some o -> (
                    match Value.obj_get o fld with
                    | Some fv -> Some (v, to_concrete fv)
                    | None -> None)
                | None -> None)
            | None -> None)
        | None -> (
            match lookup_subject v with
            | Some _ -> Some (v, Smt.Formula.V_str "<obj>")
            | None -> (
                match List.assoc_opt v valuation with
                | Some fv -> Some (v, fv)
                | None -> None)))
      cond_vars
  in
  let on_event = function
    | Interp.Ev_stmt sid when sid = target_sid -> (
        match !st_ref with
        | None -> ()
        | Some st -> (
            let env = runtime_env st in
            match Smt.Formula.eval env condition with
            | Some false ->
                violating_env := env;
                raise Stop_replay
            | r -> arrivals := r :: !arrivals))
    | _ -> ()
  in
  interp_config :=
    { !interp_config with Interp.fuel = config.replay_fuel; on_event = Some on_event };
  let st = Interp.create ~config:!interp_config p in
  st_ref := Some st;
  (* materialize subjects and install valuation fields *)
  subjects :=
    List.map (fun cls -> (cls, Interp.alloc_object st cls)) subject_classes;
  let concrete_of (fv : Smt.Formula.value) (ty : Ast.typ option) : Value.t =
    match fv with
    | Smt.Formula.V_int n -> Value.V_int n
    | Smt.Formula.V_bool b -> Value.V_bool b
    | Smt.Formula.V_null -> Value.V_null
    | Smt.Formula.V_str s -> (
        match ty with
        | Some (Ast.T_ref c) ->
            (* an object-ish marker for a reference slot: reuse the
               subject of that class, else allocate a fresh one *)
            if s = "<obj>" || s = "<ref>" then
              match lookup_subject c with
              | Some sv -> sv
              | None -> Interp.alloc_object st c
            else Value.V_str s
        | _ -> Value.V_str s)
  in
  List.iter
    (fun (v, fv) ->
      match split_var v with
      | Some (cls, fld) -> (
          match (lookup_subject cls, Ast.find_class p cls) with
          | Some sv, Some c -> (
              match
                List.find_opt (fun (f : Ast.field_decl) -> f.Ast.f_name = fld)
                  c.Ast.c_fields
              with
              | Some f -> (
                  match obj_of st sv with
                  | Some o ->
                      Value.obj_set o fld (concrete_of fv (Some f.Ast.f_typ))
                  | None -> ())
              | None -> ())
          | _ -> ())
      | None -> ())
    valuation;
  (* a bare variable whose witness value is null means "the subject is
     absent": drop that subject so null checks see null *)
  List.iter
    (fun (v, fv) ->
      if split_var v = None && fv = Smt.Formula.V_null then
        subjects := List.remove_assoc v !subjects)
    valuation;
  (* receiver: the subject of the enclosing class when constrained, a
     plain allocation otherwise *)
  let recv_info =
    match cls_opt with
    | None -> None
    | Some cls -> (
        match Ast.find_class p cls with
        | None -> None
        | Some c ->
            let recv =
              match lookup_subject cls with
              | Some sv -> sv
              | None ->
                  let r = Interp.alloc_object st cls in
                  subjects := (cls, r) :: !subjects;
                  r
            in
            Some (c, recv))
  in
  (* wire other subjects into the receiver: reference fields of a
     matching class, and container fields under the witness's string
     keys, so receiver-side lookups can find the constrained object *)
  let str_keys =
    List.filter_map
      (fun (_, fv) ->
        match fv with
        | Smt.Formula.V_str s when s <> "<obj>" && s <> "<ref>" -> Some s
        | _ -> None)
      valuation
    @ [ wire_key ]
    |> List.sort_uniq compare
  in
  (match recv_info with
  | None -> ()
  | Some (c, recv) -> (
      match obj_of st recv with
      | None -> ()
      | Some robj ->
          List.iter
            (fun (fd : Ast.field_decl) ->
              match fd.Ast.f_typ with
              | Ast.T_ref fc -> (
                  match lookup_subject fc with
                  | Some sv when not (Value.equal sv recv) ->
                      if
                        not
                          (List.exists
                             (fun (v, _) ->
                               v = c.Ast.c_name ^ "." ^ fd.Ast.f_name)
                             valuation)
                      then Value.obj_set robj fd.Ast.f_name sv
                  | _ -> ())
              | Ast.T_map -> (
                  match Value.obj_get robj fd.Ast.f_name with
                  | Some (Value.V_ref addr) -> (
                      match Value.heap_get st.Interp.heap addr with
                      | Some (Value.C_map cell) ->
                          List.iter
                            (fun (_, sv) ->
                              if not (Value.equal sv recv) then
                                List.iter
                                  (fun k ->
                                    Value.map_put cell (Value.V_str k) sv)
                                  str_keys)
                            (List.sort compare !subjects)
                      | _ -> ())
                  | _ -> ())
              | Ast.T_list -> (
                  match Value.obj_get robj fd.Ast.f_name with
                  | Some (Value.V_ref addr) -> (
                      match Value.heap_get st.Interp.heap addr with
                      | Some (Value.C_list cell) ->
                          List.iter
                            (fun (_, sv) ->
                              if not (Value.equal sv recv) then
                                cell := !cell @ [ sv ])
                            (List.sort compare !subjects)
                      | _ -> ())
                  | _ -> ())
              | Ast.T_int | Ast.T_bool | Ast.T_str | Ast.T_void | Ast.T_any ->
                  ())
            c.Ast.c_fields))
  ;
  (* arguments for the driven method, by parameter name *)
  let method_decl =
    match recv_info with
    | Some (c, _) -> Ast.find_method_in_class c meth
    | None -> Ast.find_func p meth
  in
  match method_decl with
  | None -> A_inconclusive (Fmt.str "method %s not found" qname)
  | Some md ->
      let args =
        List.map
          (fun (pname, ty) ->
            match List.assoc_opt pname valuation with
            | Some fv -> concrete_of fv (Some ty)
            | None -> (
                match ty with
                | Ast.T_int -> Value.V_int 0
                | Ast.T_bool -> Value.V_bool false
                | Ast.T_str -> Value.V_str wire_key
                | Ast.T_ref c -> (
                    match lookup_subject c with
                    | Some sv -> sv
                    | None -> Interp.alloc_object st c)
                | Ast.T_map ->
                    Value.V_ref
                      (Value.heap_alloc st.Interp.heap (Value.C_map (ref [])))
                | Ast.T_list ->
                    Value.V_ref
                      (Value.heap_alloc st.Interp.heap (Value.C_list (ref [])))
                | Ast.T_void | Ast.T_any -> Value.V_null))
          md.Ast.m_params
      in
      let outcome =
        match recv_info with
        | Some (_, recv) -> (
            try Interp.method_call_bounded ~fuel:config.replay_fuel st ~recv ~meth args
            with Stop_replay -> Interp.Call_returned Value.V_null)
        | None -> (
            try Interp.call_bounded ~fuel:config.replay_fuel st meth args
            with Stop_replay -> Interp.Call_returned Value.V_null)
      in
      if !violating_env <> [] then A_reproduced !violating_env
      else (
        match outcome with
        | Interp.Call_returned _ | Interp.Call_threw _ ->
            if List.exists (fun r -> r = None) !arrivals then
              A_inconclusive "checker unevaluable at a target arrival"
            else if !arrivals <> [] then A_refuted
            else A_no_arrival
        | Interp.Call_error m -> A_inconclusive (Fmt.str "replay error: %s" m)
        | Interp.Call_exhausted -> A_inconclusive "replay budget exhausted")

type replay_outcome =
  | Reproduced of (string * Smt.Formula.value) list
  | Refuted
  | Inconclusive of string

let replay_finding (config : config) (p : Ast.program) ~(qname : string)
    ~(target_sid : int) ~(condition : Smt.Formula.t)
    ~(model : (Smt.Formula.atom * bool) list) ~(pc : Smt.Formula.t) :
    replay_outcome =
  let md =
    let cls_opt, meth = split_method qname in
    match cls_opt with
    | Some cls -> (
        match Ast.find_class p cls with
        | Some c -> Ast.find_method_in_class c meth
        | None -> None)
    | None -> Ast.find_func p meth
  in
  let witness_formula =
    Smt.Formula.conj [ pc; Smt.Formula.negate condition ]
  in
  let valuations, complete =
    synthesize ~model ~hints:(program_hints p md)
      ~max_nodes:config.max_nodes ~max_attempts:config.max_attempts
      witness_formula
  in
  if valuations = [] then
    Inconclusive
      (if complete then "no concrete witness within the bounded case-split"
       else "case-split budget exhausted before a witness was found")
  else
    let attempts =
      List.map (replay_attempt config p ~qname ~target_sid ~condition)
        valuations
    in
    match
      List.find_opt (function A_reproduced _ -> true | _ -> false) attempts
    with
    | Some (A_reproduced env) -> Reproduced env
    | _ ->
        let refuted = function A_refuted -> true | _ -> false in
        let benign = function
          | A_refuted | A_no_arrival -> true
          | A_reproduced _ | A_inconclusive _ -> false
        in
        if complete && List.exists refuted attempts
           && List.for_all benign attempts
        then Refuted
        else
          let why =
            match
              List.find_opt
                (function A_inconclusive _ -> true | _ -> false)
                attempts
            with
            | Some (A_inconclusive m) -> m
            | _ ->
                if List.for_all (function A_no_arrival -> true | _ -> false) attempts
                then "replay never reached the target statement"
                else "replay incomplete"
          in
          Inconclusive why

(* ------------------------------------------------------------------ *)
(* Tier fusion                                                         *)
(* ------------------------------------------------------------------ *)

let env_to_string (env : (string * Smt.Formula.value) list) : string =
  String.concat ", "
    (List.map
       (fun (v, fv) ->
         Fmt.str "%s=%s"
           v
           (match fv with
           | Smt.Formula.V_int n -> string_of_int n
           | Smt.Formula.V_bool b -> string_of_bool b
           | Smt.Formula.V_str s -> s
           | Smt.Formula.V_null -> "null"))
       env)

(* The rule condemns a state the system's own green tests concretely
   produced: the strongest hallucination signal short of a refuting
   replay.  Decided on the captured trace state first (pure evaluation);
   the SMT entailment is the fallback when capture came up empty. *)
let contradicts_observed (condition : Smt.Formula.t)
    (tv : Engine.Checker.trace_verdict) : bool =
  match Smt.Formula.eval tv.Engine.Checker.tv_state condition with
  | Some false -> true
  | Some true -> false
  | None ->
      Smt.Solver.entails tv.Engine.Checker.tv_pc
        (Smt.Formula.negate condition)

let triage_trace (config : config) (p : Ast.program)
    (report : Engine.Checker.rule_report)
    (tv : Engine.Checker.trace_verdict) : finding =
  let rule_id = report.Engine.Checker.rep_rule.Semantics.Rule.rule_id in
  Telemetry.Trace.with_span ~cat:"triage"
    ~args:[ ("rule", rule_id); ("method", tv.Engine.Checker.tv_method) ]
    "triage.witness"
  @@ fun () ->
  let condition =
    match Semantics.Rule.condition report.Engine.Checker.rep_rule with
    | Some c -> c
    | None -> Smt.Formula.tru
  in
  let model =
    match tv.Engine.Checker.tv_result with
    | Smt.Solver.Violation m -> m
    | Smt.Solver.Verified | Smt.Solver.Undecided _ -> []
  in
  let outcome =
    replay_finding config p ~qname:tv.Engine.Checker.tv_method
      ~target_sid:tv.Engine.Checker.tv_target_sid ~condition ~model
      ~pc:tv.Engine.Checker.tv_pc
  in
  let contradiction = contradicts_observed condition tv in
  let sanity = report.Engine.Checker.rep_sanity_ok in
  let hallucinated = contradiction && not sanity in
  let tier, reason =
    match outcome with
    | Reproduced env ->
        if hallucinated then
          ( Likely_fp,
            Fmt.str
              "replay reproduces, but the rule contradicts observed \
               passing state and has no verified trace (%s)"
              (env_to_string env) )
        else (Witnessed, Fmt.str "replay reproduces: %s" (env_to_string env))
    | Refuted ->
        ( Likely_fp,
          "replay refutes: every synthesized witness reached the target \
           with the checker holding" )
    | Inconclusive why ->
        if hallucinated then
          ( Likely_fp,
            Fmt.str
              "rule contradicts observed passing state and has no \
               verified trace (replay: %s)"
              why )
        else (Consistent, Fmt.str "model exists; replay inconclusive: %s" why)
  in
  {
    f_rule_id = rule_id;
    f_method = tv.Engine.Checker.tv_method;
    f_entry = tv.Engine.Checker.tv_entry;
    f_target_sid = tv.Engine.Checker.tv_target_sid;
    f_tier = tier;
    f_reason = reason;
  }

let triage_lock (report : Engine.Checker.rule_report)
    (lf : Engine.Checker.lock_finding) : finding =
  let rule_id = report.Engine.Checker.rep_rule.Semantics.Rule.rule_id in
  Telemetry.Trace.with_span ~cat:"triage"
    ~args:[ ("rule", rule_id); ("method", lf.Engine.Checker.lf_method) ]
    "triage.witness"
  @@ fun () ->
  let tier, reason =
    if lf.Engine.Checker.lf_static then
      (Consistent, "static lock-scope finding; not dynamically observed")
    else
      ( Witnessed,
        Fmt.str "blocking op %s observed under a held monitor"
          lf.Engine.Checker.lf_op )
  in
  {
    f_rule_id = rule_id;
    f_method = lf.Engine.Checker.lf_method;
    f_entry = "";
    f_target_sid = lf.Engine.Checker.lf_sid;
    f_tier = tier;
    f_reason = reason;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let triage_report ?(config = default_config) (p : Ast.program)
    (r : Engine.Checker.rule_report) : triaged =
  if not config.enabled then { t_report = r; t_findings = [] }
  else
    let fs =
      List.map (triage_trace config p r) r.Engine.Checker.rep_violations
      @ List.map (triage_lock r) r.Engine.Checker.rep_lock_findings
    in
    List.iter
      (fun f -> Telemetry.Metrics.bump (List.assoc f.f_tier tier_counters))
      fs;
    { t_report = r; t_findings = fs }

let triage_reports ?(config = default_config) (p : Ast.program)
    (rs : Engine.Checker.rule_report list) : triaged list =
  let ts = List.map (triage_report ~config p) rs in
  if config.enabled then
    List.iter
      (fun (_, c) -> Telemetry.Metrics.trace_counter ~cat:"triage" c)
      tier_counters;
  ts

(** The report-level tier: the best tier among the rule's findings (a
    single witnessed finding makes the rule actionable), [None] for a
    clean report. *)
let rule_tier (t : triaged) : tier option =
  if t.t_findings = [] then None
  else if List.exists (fun f -> f.f_tier = Witnessed) t.t_findings then
    Some Witnessed
  else if List.exists (fun f -> f.f_tier = Consistent) t.t_findings then
    Some Consistent
  else Some Likely_fp

(** A rule blocks the gate iff it has at least one finding that survived
    triage (Witnessed or Consistent); all-Likely-FP rules are demoted to
    advisory. *)
let blocking (t : triaged) : bool =
  List.exists (fun f -> f.f_tier <> Likely_fp) t.t_findings

let has_blocking_findings (ts : triaged list) : bool =
  List.exists blocking ts

(** Rule ids with findings, all of which triage ranked Likely-FP. *)
let demoted_ids (ts : triaged list) : string list =
  List.filter_map
    (fun t ->
      if t.t_findings <> [] && not (blocking t) then
        Some t.t_report.Engine.Checker.rep_rule.Semantics.Rule.rule_id
      else None)
    ts

let finding_to_string (f : finding) : string =
  Fmt.str "[%s] %s in %s%s: %s"
    (tier_to_string f.f_tier)
    f.f_rule_id f.f_method
    (if f.f_entry = "" then "" else Fmt.str " (driven by %s)" f.f_entry)
    f.f_reason
