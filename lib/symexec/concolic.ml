(** Concolic execution engine over MiniJava (the WeBridge substitute).

    Execution is driven by concrete inputs (existing tests, per §3.2 of the
    paper).  The concrete semantics are {!Minilang.Interp}'s own: this
    module is only a shadow layer ({!Interp.SHADOW}) instantiating
    {!Interp.Make}, so the paths it records are exactly the paths the
    interpreter takes.  Alongside each concrete value the layer tracks a
    symbolic shadow ({!Sym}).  At every branch it records the *reason* for
    the outcome — the conjunction of literals over state paths that the
    evaluated (short-circuited) part of the guard established — and
    accumulates these facts into the path condition.  Following the
    paper's pruning strategy, only facts that mention a variable relevant
    to the semantic under check are kept (the full, unpruned condition is
    retained for the ablation experiment).

    When control reaches a *target statement* of the semantic, the engine
    snapshots the current path condition: that snapshot is what the SMT
    complement check ({!Smt.Solver.check_trace}) judges.

    Shadow-naming rules (the engine side of normalization):
    - a field read [o.f] has shadow [C ^ "." ^ f], where [C] is the
      runtime class of [o] (class-canonical naming);
    - a local declared [var x: C = ...] whose initialiser has no shadow is
      given the fresh root [C], and so is an object parameter of type [C];
      a scalar parameter is the symbolic input named by the parameter;
    - scalar constants shadow as themselves; arithmetic results are
      opaque (their guards contribute no facts). *)

open Minilang

type tagged = { v : Value.t; sym : Sym.t option }

type hit = {
  h_target_sid : int;
  h_method : string;  (** qualified method containing the target *)
  h_entry : string;  (** test / entry function driving this execution *)
  h_pc : Smt.Formula.t list;  (** pruned path condition (conjunction) *)
  h_full_pc : Smt.Formula.t list;  (** unpruned path condition *)
  h_decisions : (int * bool) list;
      (** first-occurrence branch decisions of the enclosing frame *)
  h_locks_held : int;
  h_state : (string * Smt.Formula.value) list;
      (** concrete valuation of [config.capture_vars] at the hit, in
          rule vocabulary; empty unless capture was requested *)
}

type blocking_event = {
  be_sid : int;
  be_op : string;
  be_locks : int;  (** number of monitors held *)
  be_method : string;
  be_entry : string;
}

type config = {
  targets : int list;
  relevant_roots : string list;
  prune : bool;
  fuel : int;
  max_call_depth : int;
  capture_vars : string list;
      (** rule-vocabulary variables (e.g. ["Snapshot.ttl"; "nowTs"]) whose
          concrete values are snapshotted into [h_state] at each hit *)
}

let default_config =
  {
    targets = [];
    relevant_roots = [];
    prune = true;
    fuel = 200_000;
    max_call_depth = 400;
    capture_vars = [];
  }

type lost = Fuel | Injected_budget | Breaker_open

let lost_to_string = function
  | Fuel -> "out of fuel"
  | Injected_budget -> "out of fuel (injected)"
  | Breaker_open -> "circuit open: concolic run skipped"

(* the shadow side of one call *)
type frame = {
  qname : string;
  mutable decisions : (int * bool) list;  (** reversed *)
  mutable f_pc : Smt.Formula.t list;  (** pruned facts of this frame, newest first *)
  mutable f_full_pc : Smt.Formula.t list;
}

(* the shadow side of one run *)
type run = {
  entry : string;
  config : config;
  mutable stack : frame list;  (** live call stack, innermost first *)
  mutable hits : hit list;
  mutable blocking : blocking_event list;
  mutable branches_total : int;
  mutable branches_recorded : int;
  mutable pc_cache : (Smt.Formula.t list * Smt.Formula.t list) option;
      (** memoized (pruned, full) snapshot; None when stale *)
}

(* The path condition at a program point is the concatenation of the facts
   of all *live* frames, outermost first: exactly the conditions along the
   execution-tree path from the entry function to the current statement.
   Facts established by calls that already returned are not part of any
   path to the target and must not leak into later checks.

   Sharing: per-frame fact lists are persistent cons-lists (sibling paths
   share their common-ancestry tails), the snapshot pair is memoized until
   the next recorded fact or frame push/pop — consecutive hits share the
   physically same lists — and formulas are hash-consed, so two snapshots
   with the same facts collapse to one [conj] node and one verdict-cache
   entry downstream. *)
let pc_snapshots (r : run) : Smt.Formula.t list * Smt.Formula.t list =
  match r.pc_cache with
  | Some snap -> snap
  | None ->
      let frames = List.rev r.stack in
      let snap =
        ( List.concat_map (fun f -> List.rev f.f_pc) frames,
          List.concat_map (fun f -> List.rev f.f_full_pc) frames )
      in
      r.pc_cache <- Some snap;
      snap

(* ------------------------------------------------------------------ *)
(* Facts                                                               *)
(* ------------------------------------------------------------------ *)

(* term for one side of a comparison: the shadow *is* the term now, else
   the concrete scalar value *)
let term_of (t : tagged) : Smt.Formula.term option =
  match t.sym with
  | Some s -> Some s
  | None -> Sym.of_value t.v

(* a signed atom fact, if both sides are pure state/constants and at least
   one mentions state *)
let atom_fact (rel : Smt.Formula.rel) (a : tagged) (b : tagged) (holds : bool) :
    Smt.Formula.t option =
  match (term_of a, term_of b) with
  | Some ta, Some tb when Sym.is_var ta || Sym.is_var tb ->
      let rel = if holds then rel else Smt.Formula.negate_rel rel in
      Some (Smt.Formula.atom rel ta tb)
  | _ -> None

let rel_of_binop : Ast.binop -> Smt.Formula.rel option = function
  | Ast.Eq -> Some Smt.Formula.Req
  | Ast.Neq -> Some Smt.Formula.Rneq
  | Ast.Lt -> Some Smt.Formula.Rlt
  | Ast.Le -> Some Smt.Formula.Rle
  | Ast.Gt -> Some Smt.Formula.Rgt
  | Ast.Ge -> Some Smt.Formula.Rge
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.And | Ast.Or -> None

let combine (a : Smt.Formula.t option) (b : Smt.Formula.t option) :
    Smt.Formula.t option =
  match (a, b) with
  | None, x | x, None -> x
  | Some fa, Some fb -> Some (Smt.Formula.conj [ fa; fb ])

(* facts are conjunctions of literals; keep the conjuncts that mention a
   relevant root *)
let rec filter_relevant (roots : string list) (f : Smt.Formula.t) :
    Smt.Formula.t option =
  match Smt.Formula.view f with
  | Smt.Formula.And fs ->
      let kept = List.filter_map (filter_relevant roots) fs in
      if kept = [] then None else Some (Smt.Formula.conj kept)
  | Smt.Formula.Atom a ->
      if
        Sym.mentions_root roots a.Smt.Formula.lhs
        || Sym.mentions_root roots a.Smt.Formula.rhs
      then Some f
      else None
  | Smt.Formula.Not g -> (
      match filter_relevant roots g with
      | Some g' -> Some (Smt.Formula.negate g')
      | None -> None)
  | Smt.Formula.Or _ | Smt.Formula.True | Smt.Formula.False -> None

let record_fact (r : run) (frame : frame) (fact : Smt.Formula.t option) : unit =
  match fact with
  | None -> ()
  | Some f ->
      r.pc_cache <- None;
      frame.f_full_pc <- f :: frame.f_full_pc;
      let keep =
        if r.config.prune then filter_relevant r.config.relevant_roots f else Some f
      in
      (match keep with
      | Some f' ->
          frame.f_pc <- f' :: frame.f_pc;
          r.branches_recorded <- r.branches_recorded + 1
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Concrete-state capture (for witness-replay triage)                   *)
(* ------------------------------------------------------------------ *)

let class_of_ref (heap : Value.heap) (v : Value.t) : string option =
  match v with
  | Value.V_ref addr -> (
      match Value.heap_get heap addr with
      | Some (Value.C_obj o) -> Some o.Value.o_class
      | Some _ | None -> None)
  | Value.V_int _ | Value.V_bool _ | Value.V_str _ | Value.V_null -> None

(* References are reported as opaque markers, never heap addresses, so
   captured states stay schedule-independent and comparable across runs;
   the markers still decide null atoms structurally (<obj> <> null). *)
let value_of_concrete : Value.t -> Smt.Formula.value = function
  | Value.V_int n -> Smt.Formula.V_int n
  | Value.V_bool b -> Smt.Formula.V_bool b
  | Value.V_str s -> Smt.Formula.V_str s
  | Value.V_null -> Smt.Formula.V_null
  | Value.V_ref _ -> Smt.Formula.V_str "<ref>"

(* Resolve one rule-vocabulary variable against the current frame.  A
   dotted path "C.f" reads field [f] of an object of runtime class [C]
   (self first, then frame locals in name order — deterministic); a bare
   name is a scalar local/param, else a class root whose mere existence
   answers null atoms.  Unresolvable names are simply omitted: downstream
   three-valued evaluation treats them as unknown. *)
let capture_state (r : run) (heap : Value.heap) ~(self : tagged)
    (vars : (string, tagged) Hashtbl.t) : (string * Smt.Formula.value) list =
  let object_of_class cls =
    let of_tagged t =
      match class_of_ref heap t.v with
      | Some c when c = cls -> Some t.v
      | Some _ | None -> None
    in
    match of_tagged self with
    | Some v -> Some v
    | None -> (
        let candidates =
          Hashtbl.fold
            (fun name t acc ->
              match of_tagged t with
              | Some v -> (name, v) :: acc
              | None -> acc)
            vars []
        in
        match
          List.sort (fun (a, _) (b, _) -> String.compare a b) candidates
        with
        | (_, v) :: _ -> Some v
        | [] -> None)
  in
  List.filter_map
    (fun var ->
      match String.index_opt var '.' with
      | Some i -> (
          let cls = String.sub var 0 i in
          let fld = String.sub var (i + 1) (String.length var - i - 1) in
          match object_of_class cls with
          | Some (Value.V_ref addr) -> (
              match Value.heap_get heap addr with
              | Some (Value.C_obj obj) -> (
                  match Value.obj_get obj fld with
                  | Some v -> Some (var, value_of_concrete v)
                  | None -> None)
              | Some _ | None -> None)
          | Some _ | None -> None)
      | None -> (
          match Hashtbl.find_opt vars var with
          | Some t -> (
              match t.v with
              | Value.V_ref _ -> Some (var, Smt.Formula.V_str "<obj>")
              | v -> Some (var, value_of_concrete v))
          | None ->
              if object_of_class var <> None then
                Some (var, Smt.Formula.V_str "<obj>")
              else None))
    r.config.capture_vars

(* ------------------------------------------------------------------ *)
(* The shadow layer                                                    *)
(* ------------------------------------------------------------------ *)

module Shadow = struct
  type sym = Sym.t option

  type nonrec tagged = tagged = { v : Value.t; sym : sym }

  let none = None

  let literal = Sym.of_value

  let field ~cls f = Some (Sym.var (cls ^ "." ^ f))

  (* class-canonical naming for opaque object sources *)
  let decl (program : Ast.program) (ty : Ast.typ) (sym : sym) : sym =
    match (sym, ty) with
    | None, Ast.T_ref c when Ast.find_class program c <> None -> Some (Sym.var c)
    | _ -> sym

  let param (program : Ast.program) (p : string) (ty : Ast.typ) (sym : sym) : sym =
    match ty with
    (* class-canonical naming for object parameters without a shadow *)
    | Ast.T_ref c when sym = None && Ast.find_class program c <> None ->
        Some (Sym.var c)
    (* scalar parameters are symbolic inputs named by the parameter, so
       that rule conditions mentioning a parameter (e.g. a TTL or an
       epoch argument) meet the trace in the same vocabulary *)
    | Ast.T_int | Ast.T_str | Ast.T_bool -> Some (Sym.var p)
    | Ast.T_ref _ | Ast.T_map | Ast.T_list | Ast.T_void | Ast.T_any -> sym

  type fact = Smt.Formula.t option

  let no_fact = None

  let compare op a b holds =
    match rel_of_binop op with Some rel -> atom_fact rel a b holds | None -> None

  (* a boolean-valued simple expression used as a guard *)
  let truth (sym : sym) (b : bool) : fact =
    match Option.bind sym Sym.as_var with
    | Some p -> Some (Smt.Formula.eq (Smt.Formula.tvar p) (Smt.Formula.tbool b))
    | None -> None

  let both = combine

  type nonrec run = run

  type nonrec frame = frame

  let enter (r : run) (qname : string) : frame =
    let frame = { qname; decisions = []; f_pc = []; f_full_pc = [] } in
    r.stack <- frame :: r.stack;
    r.pc_cache <- None;
    frame

  let leave (r : run) =
    r.stack <- (match r.stack with _ :: rest -> rest | [] -> []);
    r.pc_cache <- None

  (* target instrumentation: snapshot the path condition on arrival *)
  let arrive (r : run) (frame : frame) heap ~sid ~locks ~self vars =
    if List.mem sid r.config.targets then
      r.hits <-
        {
          h_target_sid = sid;
          h_method = frame.qname;
          h_entry = r.entry;
          h_pc = fst (pc_snapshots r);
          h_full_pc = snd (pc_snapshots r);
          h_decisions = List.rev frame.decisions;
          h_locks_held = List.length locks;
          h_state =
            (if r.config.capture_vars = [] then []
             else capture_state r heap ~self vars);
        }
        :: r.hits

  let branch (r : run) (frame : frame) ~sid ~first fact taken =
    r.branches_total <- r.branches_total + 1;
    record_fact r frame fact;
    if first && not (List.mem_assoc sid frame.decisions) then
      frame.decisions <- (sid, taken) :: frame.decisions

  let blocking (r : run) (frame : frame) ~sid op ~locks =
    r.blocking <-
      {
        be_sid = sid;
        be_op = op;
        be_locks = List.length locks;
        be_method = frame.qname;
        be_entry = r.entry;
      }
      :: r.blocking
end

module Eval = Interp.Make (Shadow)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

type run_result = {
  r_entry : string;
  r_outcome : Interp.test_outcome;
  r_lost : lost option;
  r_hits : hit list;  (** in execution order *)
  r_blocking : blocking_event list;  (** in execution order *)
  r_branches_total : int;
  r_branches_recorded : int;
}

let skipped_run (entry : string) (lost : lost) : run_result =
  {
    r_entry = entry;
    r_outcome = Interp.Errored (lost_to_string lost);
    r_lost = Some lost;
    r_hits = [];
    r_blocking = [];
    r_branches_total = 0;
    r_branches_recorded = 0;
  }

(** Run one entry function (usually a test) under the concolic engine.

    The run is an injection point ({!Resilience.Fault.Concolic}): a
    faulted run either raises {!Resilience.Fault.Injected}
    (crash/transient — the engine's job retry handles it) or degrades
    to an out-of-fuel outcome (budget).  An open circuit breaker skips
    the run entirely; genuine fuel exhaustion trips the breaker the
    same way an injected budget fault does. *)
let run ?(config = default_config) (program : Ast.program) (entry : string) :
    run_result =
  Telemetry.Trace.with_span ~cat:"symexec" ~args:[ ("entry", entry) ]
    "concolic.run"
  @@ fun () ->
  if not (Resilience.Breaker.proceed Resilience.Fault.Concolic) then
    skipped_run entry Breaker_open
  else
    match Resilience.Injector.draw Resilience.Fault.Concolic with
    | Some (Resilience.Fault.Crash | Resilience.Fault.Transient) as k ->
        Resilience.Injector.raise_fault Resilience.Fault.Concolic (Option.get k)
    | Some Resilience.Fault.Budget ->
        Resilience.Breaker.failure Resilience.Fault.Concolic;
        skipped_run entry Injected_budget
    | None ->
        let shadow =
          {
            entry;
            config;
            stack = [];
            hits = [];
            blocking = [];
            branches_total = 0;
            branches_recorded = 0;
            pc_cache = None;
          }
        in
        let st =
          Eval.create
            ~config:
              {
                Interp.fuel = config.fuel;
                on_event = None;
                max_call_depth = config.max_call_depth;
              }
            ~shadow program
        in
        let outcome = Eval.test st entry in
        (* the interpreter raises Out_of_fuel exactly when fuel hits zero *)
        let lost = if st.Eval.fuel_left <= 0 then Some Fuel else None in
        (match lost with
        | Some _ -> Resilience.Breaker.failure Resilience.Fault.Concolic
        | None -> Resilience.Breaker.success Resilience.Fault.Concolic);
        {
          r_entry = entry;
          r_outcome = outcome;
          r_lost = lost;
          r_hits = List.rev shadow.hits;
          r_blocking = List.rev shadow.blocking;
          r_branches_total = shadow.branches_total;
          r_branches_recorded = shadow.branches_recorded;
        }

(** Run several entries, concatenating results. *)
let run_all ?(config = default_config) (program : Ast.program)
    (entries : string list) : run_result list =
  List.map (fun e -> run ~config program e) entries

let hit_pc_formula (h : hit) : Smt.Formula.t = Smt.Formula.conj h.h_pc

let hit_full_pc_formula (h : hit) : Smt.Formula.t = Smt.Formula.conj h.h_full_pc

let hit_to_string (h : hit) =
  Fmt.str "hit@%d in %s (entry %s): pc = %s" h.h_target_sid h.h_method h.h_entry
    (Smt.Formula.to_string (hit_pc_formula h))
