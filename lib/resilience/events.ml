(** Resilience event bus.

    Every observable recovery action — an oracle retry, a quarantined
    job, a component degrading its answer — is emitted here, so failures
    are logged rather than silently folded into counters.

    The default sink routes events through the [Telemetry.Event] scope
    "resilience" (warnings for recoveries, errors for quarantines),
    which formats lazily, logs through the scope's {!Logs} source, and
    records a trace instant when tracing is on.  A host library can
    install its own sink — [Lisa.Log] re-routes events through the
    "lisa" scope so one [-v] flag covers the whole pipeline. *)

type severity = Warn | Error

type t =
  | Job_retry of { job : string; attempt : int; reason : string }
  | Job_quarantined of { job : string; reason : string }
  | Component_degraded of { component : string; reason : string }

let severity = function
  | Job_retry _ | Component_degraded _ -> Warn
  | Job_quarantined _ -> Error

let to_string = function
  | Job_retry { job; attempt; reason } ->
      Fmt.str "retrying job %s (attempt %d): %s" job attempt reason
  | Job_quarantined { job; reason } ->
      Fmt.str "quarantined job %s: %s" job reason
  | Component_degraded { component; reason } ->
      Fmt.str "%s degraded: %s" component reason

let scope = Telemetry.Event.scope "resilience"

(* Route through the telemetry funnel: [to_string] is only forced when
   the event is wanted (level, tracer, or test sink), and a tracing run
   records the event as a trace instant too. *)
let default_sink (e : t) : unit =
  let sev =
    match severity e with
    | Warn -> Telemetry.Event.Warn
    | Error -> Telemetry.Event.Error
  in
  Telemetry.Event.emit scope sev (fun () -> to_string e)

let sink : (t -> unit) Atomic.t = Atomic.make default_sink

let set_sink f = Atomic.set sink f

let emit (e : t) : unit = (Atomic.get sink) e
