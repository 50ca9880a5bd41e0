(** Spans recorded in memory by the benchmark's own code, around each
    public call into a layer, and written out as a Chrome trace at exit.

    A [Layer] span times one call.  A [Group] span (a system, a case, a
    request) holds layer spans; its self time is the glue between them.
    A [Probe] splits the layer span that closed last by re-running a
    call on the same inputs; probes are reported but excluded from the
    wall time. *)

type kind = Layer | Group | Probe

type span = {
  id : int;
  name : string;
  kind : kind;
  parent : int;  (** the causing span: enclosing span, or the span a probe splits *)
  enclosing : int;  (** the span open around this one, for self times *)
  start : float;
  stop : float;
}

type t = {
  mutable closed : span list;
  mutable stack : int list;
  mutable next : int;
  mutable last_layer : int;
}

let create () = { closed = []; stack = []; next = 0; last_layer = -1 }

let record t kind name f =
  let id = t.next in
  let enclosing = match t.stack with p :: _ -> p | [] -> -1 in
  let parent = if kind = Probe then t.last_layer else enclosing in
  t.next <- id + 1;
  t.stack <- id :: t.stack;
  let start = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      t.stack <- List.tl t.stack;
      t.closed <- { id; name; kind; parent; enclosing; start; stop } :: t.closed;
      if kind = Layer then t.last_layer <- id)

let layer t name f = record t Layer name f

let group t name f = record t Group name f

let probe t name f = record t Probe name f

let duration s = s.stop -. s.start

(** Every span with its self time: its duration minus the time of the
    spans directly inside it. *)
let self_times (t : t) : (span * float) list =
  let inner = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.enclosing >= 0 then
        Hashtbl.replace inner s.enclosing
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt inner s.enclosing)))
    t.closed;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt inner s.id)))
    t.closed

(** Total self seconds per (kind, name), sorted by name. *)
let totals (t : t) : (kind * string * float) list =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let k = (s.kind, s.name) in
      Hashtbl.replace acc k (self +. Option.value ~default:0. (Hashtbl.find_opt acc k)))
    (self_times t);
  Hashtbl.fold (fun (kind, name) v l -> (kind, name, v) :: l) acc []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)

let total (t : t) kind name =
  List.fold_left
    (fun sum (k, n, v) -> if k = kind && n = name then sum +. v else sum)
    0. (totals t)

(** Wall time of the traced work: the outermost spans, minus the probes
    run inside them. *)
let wall (t : t) : float =
  List.fold_left
    (fun sum s ->
      match (s.kind, s.enclosing) with
      | Probe, _ -> sum -. duration s
      | _, -1 -> sum +. duration s
      | _ -> sum)
    0. t.closed

let write_chrome (t : t) (path : string) : unit =
  let spans = List.rev t.closed in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
         \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name
        (match s.kind with Layer -> "layer" | Group -> "group" | Probe -> "probe")
        ((s.start -. t0) *. 1e6) (duration s *. 1e6) s.id s.parent)
    spans;
  output_string oc "\n]}\n"
