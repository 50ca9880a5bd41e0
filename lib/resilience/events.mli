(** Resilience event bus: oracle retries, quarantines, and degraded
    components flow through one sink so recovery is logged, not silent.
    The default sink is the [Telemetry.Event] scope "resilience"; hosts
    may install their own. *)

type severity = Warn | Error

type t =
  | Job_retry of { job : string; attempt : int; reason : string }
  | Job_quarantined of { job : string; reason : string }
  | Component_degraded of { component : string; reason : string }

val severity : t -> severity

val to_string : t -> string

(** Replace the sink (e.g. to route through a host's log source). *)
val set_sink : (t -> unit) -> unit

val emit : t -> unit
