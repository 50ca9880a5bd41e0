(** Concrete interpreter for MiniJava — the "JVM" subject systems run on,
    and the only implementation of the language's concrete semantics
    (builtins, runtime type errors, the clock, fuel, call depth,
    [throw]/[try], [synchronized], calls).

    Maintains a heap, a logical clock, the set of monitors held by
    enclosing [synchronized] blocks, and an event stream delivered through
    an optional hook.  Execution is deterministic and total given finite
    fuel.

    The evaluator is {!Make}, a functor over a {!SHADOW} layer that rides
    along with execution: values carry shadows, guard evaluations yield
    facts, and statements, branches, calls and blocking builtins call the
    layer's hooks.  This module is [Make (No_shadow)]; the concolic engine
    ({!Symexec.Concolic}) is [Make] over symbolic shadows. *)

type event =
  | Ev_stmt of int  (** statement [sid] about to execute *)
  | Ev_lock of { sid : int; addr : int }
  | Ev_unlock of { sid : int; addr : int }
  | Ev_blocking of { sid : int; op : string; locks_held : int list }

exception Mini_throw of Value.t
(** a MiniJava [throw] that escaped to the host *)

exception Runtime_error of string * Loc.t

exception Out_of_fuel

exception Assertion_failure of string * int
(** message, sid of the failing [assert] *)

type config = {
  fuel : int;  (** maximum number of statements to execute *)
  on_event : (event -> unit) option;
  max_call_depth : int;
}

val default_config : config

type test_outcome =
  | Passed
  | Failed of string  (** assertion failure *)
  | Errored of string  (** uncaught throw, runtime error, or fuel *)

(** {2 The shadow seam} *)

(** A layer computed alongside concrete execution.  It observes; it never
    changes what the program does. *)
module type SHADOW = sig
  type sym
  (** a value's shadow *)

  type tagged = { v : Value.t; sym : sym }

  val none : sym
  (** shadow of builtin results, [new] objects, caught throws, [void] *)

  val literal : Value.t -> sym

  val field : cls:string -> string -> sym
  (** shadow of a read of field [f] of an object of runtime class [cls] *)

  val decl : Ast.program -> Ast.typ -> sym -> sym
  (** shadow of a local declared with this type and initialiser shadow *)

  val param : Ast.program -> string -> Ast.typ -> sym -> sym
  (** shadow of a parameter (name, declared type) bound to an argument *)

  type fact
  (** what evaluating a boolean expression established *)

  val no_fact : fact

  val compare : Ast.binop -> tagged -> tagged -> bool -> fact
  (** a comparison's operands and whether it held *)

  val truth : sym -> bool -> fact
  (** a non-operator boolean expression (variable, field, call) in guard
      position, with its value *)

  val both : fact -> fact -> fact
  (** [a && b] or [a || b] that evaluated both operands *)

  type run
  (** per-run state *)

  type frame
  (** per-call state *)

  val enter : run -> string -> frame
  (** a call of the qualified method begins *)

  val leave : run -> unit
  (** the innermost call returns or unwinds *)

  val arrive :
    run -> frame -> Value.heap -> sid:int -> locks:int list -> self:tagged ->
    (string, tagged) Hashtbl.t -> unit
  (** statement [sid] is about to execute with these locals *)

  val branch : run -> frame -> sid:int -> first:bool -> fact -> bool -> unit
  (** an [if]/[while] guard was decided; [first] is false on the second
      and later evaluations of a [while] guard in one execution *)

  val blocking : run -> frame -> sid:int -> string -> locks:int list -> unit
  (** a blocking builtin ran *)
end

(** Every hook a no-op, every shadow [()]. *)
module No_shadow :
  SHADOW with type sym = unit and type fact = unit and type run = unit and type frame = unit

module Make (S : SHADOW) : sig
  type state = {
    program : Ast.program;
    heap : Value.heap;
    mutable clock : int;
    mutable fuel_left : int;
    mutable locks : int list;  (** held monitors, innermost first *)
    mutable depth : int;
    console : Buffer.t;
    logbuf : Buffer.t;
    config : config;
    shadow : S.run;
  }

  val create : ?config:config -> shadow:S.run -> Ast.program -> state

  (** Run a [test_*] function on the state and classify the outcome like a
      CI job. *)
  val test : state -> string -> test_outcome
end

(** {2 The plain interpreter} *)

type state = Make(No_shadow).state = {
  program : Ast.program;
  heap : Value.heap;
  mutable clock : int;
  mutable fuel_left : int;
  mutable locks : int list;  (** held monitors, innermost first *)
  mutable depth : int;
  console : Buffer.t;
  logbuf : Buffer.t;
  config : config;
  shadow : unit;
}

val create : ?config:config -> Ast.program -> state

(** Call a top-level function against an existing state (heap and clock
    persist across calls); used by the bounded scenario model checker. *)
val call : state -> string -> Value.t list -> Value.t

(** Run a top-level function in a fresh state; returns the final state and
    the function's value. *)
val run_function :
  ?config:config -> Ast.program -> string -> Value.t list -> state * Value.t

(** Run a [test_*] function in a fresh state and classify the outcome like
    a CI job. *)
val run_test : ?config:config -> Ast.program -> string -> test_outcome

(** {2 Bounded replay entry points}

    Structured-outcome wrappers used by witness-replay triage (and usable
    by any harness that must never hang): fuel or call-depth exhaustion is
    an explicit [Call_exhausted] outcome rather than a host exception. *)

type call_outcome =
  | Call_returned of Value.t
  | Call_threw of string  (** a MiniJava [throw] escaped the call *)
  | Call_error of string  (** runtime error or assertion failure *)
  | Call_exhausted  (** fuel or call-depth budget spent: inconclusive *)

val call_outcome_to_string : call_outcome -> string

(** Allocate a default-initialized object of a class without running its
    [init] method, so callers can populate fields explicitly. *)
val alloc_object : state -> string -> Value.t

(** Call a top-level function under a structured budget.  [?fuel] resets
    the state's remaining fuel before the call. *)
val call_bounded : ?fuel:int -> state -> string -> Value.t list -> call_outcome

(** Call [meth] on receiver [recv] (class resolved from the runtime
    object) under the same structured budget. *)
val method_call_bounded :
  ?fuel:int -> state -> recv:Value.t -> meth:string -> Value.t list ->
  call_outcome

(** Names of the program's [test_*] top-level functions. *)
val test_names : Ast.program -> string list
