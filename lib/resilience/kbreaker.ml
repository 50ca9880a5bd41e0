(** Keyed circuit breakers.  One pathological key (a tenant flooding a
    daemon with failing requests, a component that keeps crashing) is
    quarantined behind its own breaker without touching any other key's
    state: after [threshold] {e consecutive} failures the key's breaker
    opens, the next [cooldown] calls are skipped outright, then one
    probe call is let through (half-open); a success closes the breaker,
    a failure re-opens it.  The [on_open]/[on_close] hooks run after the
    lock is released, on every transition. *)

type state = Closed | Open_remaining of int  (** calls still to skip *)

type cell = {
  mutable st : state;
  mutable consecutive : int;  (** consecutive failures while closed *)
  mutable trips : int;  (** total times this breaker opened *)
}

type 'k t = {
  mutable threshold : int;
  mutable cooldown : int;
  lock : Mutex.t;
  cells : ('k, cell) Hashtbl.t;
  on_open : 'k -> int -> unit;  (** key, consecutive failures *)
  on_close : 'k -> unit;
}

let create ?(threshold = 5) ?(cooldown = 20) ?(on_open = fun _ _ -> ())
    ?(on_close = fun _ -> ()) () : 'k t =
  {
    threshold = max 1 threshold;
    cooldown = max 1 cooldown;
    lock = Mutex.create ();
    cells = Hashtbl.create 16;
    on_open;
    on_close;
  }

let with_lock t f =
  Mutex.lock t.lock;
  let r = f () in
  Mutex.unlock t.lock;
  r

let configure (t : 'k t) ?threshold ?cooldown () =
  with_lock t (fun () ->
      Option.iter (fun v -> t.threshold <- max 1 v) threshold;
      Option.iter (fun v -> t.cooldown <- max 1 v) cooldown)

let cell t key =
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
      let c = { st = Closed; consecutive = 0; trips = 0 } in
      Hashtbl.replace t.cells key c;
      c

let proceed (t : 'k t) (key : 'k) : bool =
  with_lock t (fun () ->
      let c = cell t key in
      match c.st with
      | Closed -> true
      | Open_remaining n when n > 0 ->
          c.st <- Open_remaining (n - 1);
          false
      | Open_remaining _ -> true (* half-open probe *))

let success (t : 'k t) (key : 'k) : unit =
  let closed =
    with_lock t (fun () ->
        let c = cell t key in
        let was_open = c.st <> Closed in
        c.st <- Closed;
        c.consecutive <- 0;
        was_open)
  in
  if closed then t.on_close key

let failure (t : 'k t) (key : 'k) : bool =
  let opened =
    with_lock t (fun () ->
        let c = cell t key in
        c.consecutive <- c.consecutive + 1;
        let trip () =
          c.st <- Open_remaining t.cooldown;
          c.trips <- c.trips + 1;
          Some c.consecutive
        in
        match c.st with
        | Open_remaining _ -> trip () (* failed half-open probe: re-open *)
        | Closed when c.consecutive >= t.threshold -> trip ()
        | Closed -> None)
  in
  match opened with
  | Some consecutive ->
      t.on_open key consecutive;
      true
  | None -> false

let is_open (t : 'k t) (key : 'k) : bool =
  with_lock t (fun () ->
      match (cell t key).st with Closed -> false | Open_remaining _ -> true)

let trips (t : 'k t) (key : 'k) : int = with_lock t (fun () -> (cell t key).trips)

let total_trips (t : 'k t) : int =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ c n -> n + c.trips) t.cells 0)

let keys (t : 'k t) : 'k list =
  with_lock t (fun () ->
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.cells []))

let reset (t : 'k t) : unit = with_lock t (fun () -> Hashtbl.reset t.cells)
