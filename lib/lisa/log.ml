(** Logging façade for the LISA pipeline.

    A thin severity layer over the [Telemetry.Event] scope "lisa":
    formatting is deferred into the event thunk ([Format.kdprintf]), so
    a suppressed message costs a closure, not a render.  Consumers (the
    CLI's [-v], tests, or a host application) install a {!Logs} reporter
    and set the level as before; the source is the scope's.

    Loading this module also reroutes the resilience event bus
    ({!Resilience.Events}) into this scope, so oracle retries, degraded
    components and quarantined jobs land in the same stream as the
    pipeline's own logs: warnings for recoveries, errors for
    quarantine. *)

let scope = Telemetry.Event.scope "lisa"

let src = Telemetry.Event.logs_src scope

let emitk sev fmt =
  Format.kdprintf
    (fun pp ->
      Telemetry.Event.emit scope sev (fun () -> Format.asprintf "%t" pp))
    fmt

let info fmt = emitk Telemetry.Event.Info fmt

let debug fmt = emitk Telemetry.Event.Debug fmt

let warn fmt = emitk Telemetry.Event.Warn fmt

let err fmt = emitk Telemetry.Event.Error fmt

(* The engine layers cannot depend on lisa, so they publish resilience
   events through a swappable sink; we claim it here. *)
let install_resilience_sink () =
  Resilience.Events.set_sink (fun ev ->
      let sev =
        match Resilience.Events.severity ev with
        | Resilience.Events.Error -> Telemetry.Event.Error
        | Resilience.Events.Warn -> Telemetry.Event.Warn
      in
      Telemetry.Event.emit scope sev (fun () ->
          Resilience.Events.to_string ev))

let () = install_resilience_sink ()
