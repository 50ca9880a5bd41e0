(** Keyed circuit breakers: open after [threshold] consecutive failures,
    skip [cooldown] calls, then probe half-open — one breaker per key
    (tenant, shard, upstream, or {!Fault.point} for {!Breaker}).

    State is instance-based: each consumer creates its own table, so
    the tenants of one daemon never interfere with the process-wide
    component breakers.  Deterministic (cooldown counted in calls, not
    wall time) and mutex-protected. *)

type 'k t

(** [create ~threshold ~cooldown ()] — both clamped to >= 1.  [on_open
    key consecutive] runs whenever a failure opens (or re-opens) a
    breaker, [on_close key] whenever a success closes an open one; both
    run outside the lock. *)
val create :
  ?threshold:int ->
  ?cooldown:int ->
  ?on_open:('k -> int -> unit) ->
  ?on_close:('k -> unit) ->
  unit ->
  'k t

(** Change the thresholds (clamped to >= 1); state is kept. *)
val configure : 'k t -> ?threshold:int -> ?cooldown:int -> unit -> unit

(** May the caller keyed [key] run?  [false] = breaker open, the call
    must be answered degraded/rejected.  Counts against the cooldown. *)
val proceed : 'k t -> 'k -> bool

(** Record a success; closes the key's breaker. *)
val success : 'k t -> 'k -> unit

(** Record a failure.  Returns [true] when this failure opened (or
    re-opened) the breaker, so the caller can emit an event. *)
val failure : 'k t -> 'k -> bool

val is_open : 'k t -> 'k -> bool

(** Times this key's breaker has opened. *)
val trips : 'k t -> 'k -> int

val total_trips : 'k t -> int

(** Keys ever seen, sorted. *)
val keys : 'k t -> 'k list

(** Close every breaker and zero its counters. *)
val reset : 'k t -> unit
