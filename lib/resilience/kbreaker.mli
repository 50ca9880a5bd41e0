(** Keyed circuit breakers: open after [threshold] consecutive failures,
    skip [cooldown] calls, then probe half-open — one breaker per key.
    [lisa serve] keys them by tenant, so one pathological stream
    degrades only its own tenant.

    State is instance-based: each consumer creates its own table, so
    the tenants of one daemon never interfere with any other table.
    Deterministic (cooldown counted in calls, not wall time) and
    mutex-protected. *)

type 'k t

(** [create ~threshold ~cooldown ()] — both clamped to >= 1. *)
val create : ?threshold:int -> ?cooldown:int -> unit -> 'k t

(** May the caller keyed [key] run?  [false] = breaker open, the call
    must be answered degraded/rejected.  Counts against the cooldown. *)
val proceed : 'k t -> 'k -> bool

(** Record a success; closes the key's breaker. *)
val success : 'k t -> 'k -> unit

(** Record a failure.  Returns [true] when this failure opened (or
    re-opened) the breaker, so the caller can emit an event. *)
val failure : 'k t -> 'k -> bool

(** Times this key's breaker has opened. *)
val trips : 'k t -> 'k -> int

val total_trips : 'k t -> int

(** Keys ever seen, sorted. *)
val keys : 'k t -> 'k list
