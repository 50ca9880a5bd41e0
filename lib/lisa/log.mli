(** Logging façade for the LISA pipeline: a severity layer over the
    [Telemetry.Event] scope "lisa".  Formatting is lazy — suppressed
    messages are never rendered.  Consumers install a {!Logs} reporter
    and set the level; the library only emits.  Loading this module
    reroutes {!Resilience.Events} into this scope (oracle retries and
    degraded components as warnings, quarantine as errors). *)

val src : Logs.src

(** The underlying telemetry scope, for direct [Telemetry.Event.emit]. *)
val scope : Telemetry.Event.scope

val info : ('a, Format.formatter, unit, unit) format4 -> 'a

val debug : ('a, Format.formatter, unit, unit) format4 -> 'a

val warn : ('a, Format.formatter, unit, unit) format4 -> 'a

val err : ('a, Format.formatter, unit, unit) format4 -> 'a

(** Route resilience events through this log source (done once at module
    load; exposed so a consumer can re-install after swapping sinks). *)
val install_resilience_sink : unit -> unit
