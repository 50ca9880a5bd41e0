(** Concrete interpreter for MiniJava — the "JVM" subject systems run on,
    and the only implementation of the language's concrete semantics
    (builtins, runtime type errors, the clock, fuel, call depth,
    [throw]/[try], [synchronized], calls).

    Maintains a heap, a logical clock and the set of monitors held by
    enclosing [synchronized] blocks.  Execution is deterministic and
    total given finite fuel.

    The evaluator is {!Make}, a functor over a {!SHADOW} layer that rides
    along with execution: values carry shadows, guard evaluations yield
    facts, and statements, branches, calls and blocking builtins call the
    layer's hooks.  This module is [Make (No_shadow)]; the concolic engine
    ({!Symexec.Concolic}) is [Make] over symbolic shadows. *)

exception Mini_throw of Value.t
(** a MiniJava [throw] that escaped to the host *)

exception Runtime_error of string * Loc.t

exception Out_of_fuel

exception Assertion_failure of string * int
(** message, sid of the failing [assert] *)

type config = {
  fuel : int;  (** maximum number of statements to execute *)
  max_call_depth : int;
}

val default_config : config

type test_outcome =
  | Passed
  | Failed of string  (** assertion failure *)
  | Errored of string  (** uncaught throw, runtime error, or fuel *)

(** {2 The shadow seam} *)

(** A layer computed alongside concrete execution.  It observes; apart
    from seeding symbolic inputs when a call begins ([enter], [input]),
    it never changes what the program does. *)
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

  val enter : run -> Value.heap -> string -> frame
  (** a call of the qualified method begins, before its parameters
      bind; the layer may write starting values into the heap's object
      fields (the concolic engine's replay under a model) *)

  val input : run -> frame -> tagged -> tagged
  (** a parameter bound on entry to [frame], shadow attached: the layer
      may replace its concrete value (the same replay); every other
      layer returns it unchanged *)

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

(** Names of the program's [test_*] top-level functions. *)
val test_names : Ast.program -> string list
