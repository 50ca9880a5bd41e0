(** Concolic execution engine over MiniJava (the WeBridge role, §3.2).

    Execution is driven by concrete inputs — the subject system's own
    tests — run by {!Minilang.Interp} itself: this engine is a shadow
    layer over the interpreter ({!Minilang.Interp.Make}), not a second
    evaluator, so a recorded path is a path the interpreter takes.  A
    shadow symbolic state tracks provenance.  At each
    branch the engine records the {e fact} the (short-circuited) guard
    evaluation established, restricted to the semantic's relevant
    variables; at each target statement it snapshots the path condition
    accumulated along the live call stack (the execution-tree path from
    the entry function to the target). *)

type tagged = { v : Minilang.Value.t; sym : Sym.t option }

type hit = {
  h_target_sid : int;
  h_method : string;  (** qualified method containing the target *)
  h_entry : string;  (** test / entry function driving this execution *)
  h_pc : Smt.Formula.t list;  (** pruned path condition (a conjunction) *)
  h_full_pc : Smt.Formula.t list;  (** unpruned path condition *)
  h_decisions : (int * bool) list;
      (** first-occurrence branch decisions of the enclosing frame *)
  h_locks_held : int;
  h_state : (string * Smt.Formula.value) list;
      (** concrete valuation of [config.capture_vars] at the hit, in rule
          vocabulary (references appear as opaque ["<obj>"]/["<ref>"]
          markers, never heap addresses); empty unless capture was
          requested *)
}

type blocking_event = {
  be_sid : int;
  be_op : string;
  be_locks : int;  (** number of monitors held *)
  be_method : string;
  be_entry : string;
}

type config = {
  targets : int list;  (** sids at which to snapshot the path condition *)
  relevant_roots : string list;  (** roots of the semantic's variables *)
  prune : bool;  (** record only relevant facts (paper default) *)
  fuel : int;
  max_call_depth : int;
  capture_vars : string list;
      (** rule-vocabulary variables whose concrete values are snapshotted
          into [h_state] at each hit *)
  inputs : (string * Smt.Formula.value) list;
      (** symbolic inputs' starting values from a model (witness-replay
          triage): each time the outermost call of a method holding one
          of [targets] begins, field [f] of every heap object of class
          [C] takes the value of ["C.f"], and the call's scalar
          parameters named here bind to theirs, when the value has the
          concrete value's kind ([null] for a reference field).  From
          there the program runs on its own state: its writes stick,
          and [h_state] reads the real heap.  The code before that call
          (a test's set-up) is untouched.  Empty by default. *)
}

val default_config : config

(** Why a run's evidence is incomplete. *)
type lost = Fuel  (** the run exhausted its fuel *)

val lost_to_string : lost -> string

type run_result = {
  r_entry : string;
  r_outcome : Minilang.Interp.test_outcome;
  r_lost : lost option;  (** [Some] when the run lost evidence *)
  r_hits : hit list;  (** in execution order *)
  r_blocking : blocking_event list;  (** in execution order *)
  r_branches_total : int;
  r_branches_recorded : int;
}

(** Run one entry function (usually a test) under the engine.  A run
    that exhausts its fuel keeps the hits gathered so far and reports
    [r_lost = Some Fuel]. *)
val run : ?config:config -> Minilang.Ast.program -> string -> run_result

val run_all : ?config:config -> Minilang.Ast.program -> string list -> run_result list

(** The hit's path condition as one conjunction. *)
val hit_pc_formula : hit -> Smt.Formula.t

val hit_full_pc_formula : hit -> Smt.Formula.t

val hit_to_string : hit -> string
