(** Per-component circuit breakers: one process-global {!Kbreaker}
    keyed by {!Fault.point}.

    A component that keeps tripping is skipped instead of retried
    forever: the breaker answers with the component's degraded value —
    [Unknown] for the solver, a skipped run for concolic, an empty
    inference for the oracle — until its cooldown (counted in calls, so
    breaker behaviour is deterministic for a fixed fault plan) lets a
    half-open probe through.  Transitions are reported as
    {!Events.Breaker_opened} / {!Events.Breaker_closed}. *)

let table : Fault.point Kbreaker.t =
  Kbreaker.create
    ~on_open:(fun point consecutive ->
      Events.emit (Events.Breaker_opened { point; consecutive }))
    ~on_close:(fun point -> Events.emit (Events.Breaker_closed { point }))
    ()

let configure ?threshold ?cooldown () =
  Kbreaker.configure table ?threshold ?cooldown ()

let proceed p = Kbreaker.proceed table p

let success p = Kbreaker.success table p

let failure p = ignore (Kbreaker.failure table p)

let is_open p = Kbreaker.is_open table p

let trips p = Kbreaker.trips table p

let total_trips () = Kbreaker.total_trips table

let reset_all () = Kbreaker.reset table
