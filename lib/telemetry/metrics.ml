(** Process-global metric registry: every counter in the tree is
    declared here exactly once, by the module that bumps it, under a
    dotted name (see DESIGN.md for the naming conventions).

    A counter is an [Atomic] cell, so bumping it from the engine's
    worker domains takes no lock.  A gauge is a value computed when read
    (intern-table totals, say) over an accessor the owning module
    already has.  The registry itself only changes at declaration time,
    which takes a mutex; {!sample} reads every metric without one.  It
    is passive: nothing is exported unless a caller samples it (the
    engine's stats recorder and its trace counter events do). *)

type metric = { name : string; doc : string; read : unit -> int }

type counter = { c_name : string; cell : int Atomic.t }

let lock = Mutex.create ()

(* declaration order; replaced wholesale on each declaration *)
let metrics : metric array Atomic.t = Atomic.make [||]

let register name doc read =
  Mutex.lock lock;
  let ms = Atomic.get metrics in
  if Array.exists (fun m -> m.name = name) ms then begin
    Mutex.unlock lock;
    invalid_arg ("Metrics: metric " ^ name ^ " declared twice")
  end;
  Atomic.set metrics (Array.append ms [| { name; doc; read } |]);
  Mutex.unlock lock

let counter ~doc name =
  let cell = Atomic.make 0 in
  register name doc (fun () -> Atomic.get cell);
  { c_name = name; cell }

let gauge ~doc name read = register name doc read

let bump ?(by = 1) c = ignore (Atomic.fetch_and_add c.cell by)

let value c = Atomic.get c.cell

let reset c = Atomic.set c.cell 0

let declared () =
  Array.to_list (Array.map (fun m -> (m.name, m.doc)) (Atomic.get metrics))

let sample () = Array.map (fun m -> m.read ()) (Atomic.get metrics)

let trace ?cat (values : int array) =
  if Trace.enabled () then begin
    let ms = Atomic.get metrics in
    Array.iteri
      (fun i v -> Trace.counter ?cat ms.(i).name [ ("count", float_of_int v) ])
      values
  end

let trace_counter ?cat c =
  Trace.counter ?cat c.c_name [ ("count", float_of_int (value c)) ]
