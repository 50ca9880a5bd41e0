(** Process-global metric registry.  Each counter is declared once, by
    the module that bumps it; readers (the engine's stats recorder, its
    trace counter events) find every metric here without per-counter
    plumbing. *)

(** An [Atomic]-backed integer counter. *)
type counter

(** [counter ~doc name] declares a counter starting at 0.
    @raise Invalid_argument if [name] is already declared. *)
val counter : doc:string -> string -> counter

(** [gauge ~doc name read] declares a value computed when read, over an
    accessor the owning module already has.  Recorders treat it like a
    counter (they take its delta across an enforcement).
    @raise Invalid_argument if [name] is already declared. *)
val gauge : doc:string -> string -> (unit -> int) -> unit

val bump : ?by:int -> counter -> unit

val value : counter -> int

(** Zero the counter (for owners whose [reset] clears their counts). *)
val reset : counter -> unit

(** Every declared metric as [(name, doc)], in declaration order. *)
val declared : unit -> (string * string) list

(** Every declared metric's current value, in declaration order.  The
    registry only grows, so an earlier sample is a prefix of a later
    one. *)
val sample : unit -> int array

(** One Chrome counter ("C") event per metric of a {!sample}, named
    after the metric, with its value as ["count"].  No-op while tracing
    is disabled. *)
val trace : ?cat:string -> int array -> unit

(** The same event for one counter, with its current value. *)
val trace_counter : ?cat:string -> counter -> unit
