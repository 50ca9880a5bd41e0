(** Structured telemetry events: the single funnel behind [Lisa.Log]
    and [Resilience.Events] (oracle retries, degraded components,
    quarantined jobs).  Scopes own a [Logs] source (so existing
    level control keeps working); message thunks are forced only when
    an event is actually wanted. *)

type severity = Debug | Info | Warn | Error

val severity_to_string : severity -> string

type t = { ev_severity : severity; ev_scope : string; ev_message : string }

type scope

(** Get-or-create the named scope (cached; thread-safe). *)
val scope : string -> scope

val name : scope -> string

(** The scope's [Logs] source, for level control / reporters. *)
val logs_src : scope -> Logs.src

(** Would an event at this severity go anywhere right now?  (A sink is
    installed, the tracer is recording, or the [Logs] level admits it.) *)
val wants : scope -> severity -> bool

(** Emit an event; the message thunk is forced only if {!wants}. *)
val emit : scope -> severity -> (unit -> string) -> unit

(** Install a capture sink (tests); replaces [Logs] routing. *)
val set_sink : (t -> unit) -> unit

val reset_sink : unit -> unit
