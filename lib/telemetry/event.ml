(** Structured telemetry events: the single funnel behind [Lisa.Log]
    and [Resilience.Events] (oracle retries, degraded components,
    quarantined jobs).  An event is (severity, scope, message);
    scopes are cached per name and own a [Logs] source, so existing
    [Logs] level control ("-v", [Logs.Src.set_level]) keeps working.

    Emission is lazy: the message thunk is only forced when somebody
    wants the event — the scope's [Logs] level admits the severity, the
    tracer is recording, or a test sink is installed. *)

type severity = Debug | Info | Warn | Error

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let logs_level = function
  | Debug -> Logs.Debug
  | Info -> Logs.Info
  | Warn -> Logs.Warning
  | Error -> Logs.Error

(* higher = chattier *)
let rank = function
  | Logs.App -> 0
  | Logs.Error -> 1
  | Logs.Warning -> 2
  | Logs.Info -> 3
  | Logs.Debug -> 4

type t = { ev_severity : severity; ev_scope : string; ev_message : string }

type scope = {
  sc_name : string;
  sc_src : Logs.src;
  sc_log : (module Logs.LOG);
}

let scopes_lock = Mutex.create ()

let scopes : (string, scope) Hashtbl.t = Hashtbl.create 8

let scope name =
  Mutex.lock scopes_lock;
  let sc =
    match Hashtbl.find_opt scopes name with
    | Some sc -> sc
    | None ->
        let src = Logs.Src.create name ~doc:(name ^ " telemetry scope") in
        let sc = { sc_name = name; sc_src = src; sc_log = Logs.src_log src } in
        Hashtbl.replace scopes name sc;
        sc
  in
  Mutex.unlock scopes_lock;
  sc

let name sc = sc.sc_name

let logs_src sc = sc.sc_src

let sink : (t -> unit) option Atomic.t = Atomic.make None

let set_sink f = Atomic.set sink (Some f)

let reset_sink () = Atomic.set sink None

(** Would an event at [sev] on [sc] go anywhere right now?  Used to
    skip message formatting entirely on the fast path. *)
let wants sc sev =
  Atomic.get sink <> None
  || Trace.enabled ()
  || (match Logs.Src.level sc.sc_src with
     | None -> false
     | Some l -> rank l >= rank (logs_level sev))

let emit sc sev (thunk : unit -> string) =
  if wants sc sev then begin
    let msg = thunk () in
    if Trace.enabled () then
      Trace.instant ~cat:"event"
        ~args:
          [ ("severity", severity_to_string sev); ("message", msg) ]
        sc.sc_name;
    match Atomic.get sink with
    | Some f -> f { ev_severity = sev; ev_scope = sc.sc_name; ev_message = msg }
    | None ->
        let (module L : Logs.LOG) = sc.sc_log in
        (match sev with
        | Debug -> L.debug (fun m -> m "%s" msg)
        | Info -> L.info (fun m -> m "%s" msg)
        | Warn -> L.warn (fun m -> m "%s" msg)
        | Error -> L.err (fun m -> m "%s" msg))
  end
