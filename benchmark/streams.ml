(** Seeded request streams.  Every stream is a pure function of
    [(seed, salt)], so one seed gives byte-identical inputs on every
    run; the program under test only ever sees the generated requests. *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]

(** A uniformly random permutation of [0, n) (Fisher-Yates). *)
let permutation (r : Random.State.t) (n : int) : int array =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** A permutation of the keys [0, n) stratified by [classes.(key)]: the
    class found at each position is the same for every seed, each class
    spread evenly over the whole order; only which key of its class
    takes a position is seeded. *)
let stratified (r : Random.State.t) (classes : int array) : int array =
  let n_classes = Array.fold_left max (-1) classes + 1 in
  let members =
    Array.init n_classes (fun c ->
        Array.of_list
          (List.filter (fun k -> classes.(k) = c) (List.init (Array.length classes) Fun.id)))
  in
  let placed =
    Array.to_list members
    |> List.mapi (fun c keys ->
           let m = Array.length keys in
           let order = permutation r m in
           List.init m (fun i ->
               (float_of_int ((2 * i) + 1) /. float_of_int (2 * m), c, keys.(order.(i)))))
    |> List.concat
    |> List.sort compare
  in
  Array.of_list (List.map (fun (_, _, k) -> k) placed)

(** Zipf(s) ranks over [0, n): rank [k] is drawn with probability
    proportional to [1 / (k + 1)^s]. *)
let zipf ~(s : float) ~(n : int) (r : Random.State.t) : unit -> int =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (k + 1) ** s));
    cdf.(k) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = Random.State.float r total in
    (* the first rank whose cumulative weight exceeds u *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then search lo mid else search (mid + 1) hi
    in
    min (n - 1) (search 0 (n - 1))

(** Poisson arrivals at [rate] per second: the offsets in
    [\[0, duration)] at which requests fall due. *)
let poisson_arrivals (r : Random.State.t) ~(rate : float) ~(duration : float) :
    float array =
  let rec go t acc =
    let u = Random.State.float r 1. in
    let t = t -. (log (Float.max epsilon_float (1. -. u)) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

(** The serve key stream over the keys [0, n) of [classes] (see
    {!stratified}).  The stratified order is walked first, so the first
    [n] requests are every key once.  After that, [hot] draws Zipf(1.0)
    ranks, the order fixing which key holds which rank (repeated keys);
    otherwise the walk goes on (distinct keys). *)
let serve_keys ~(hot : bool) ~(seed : int) ~(classes : int array) : unit -> int =
  let n_keys = Array.length classes in
  let order = stratified (rng ~seed ~salt:1) classes in
  let draw = zipf ~s:1.0 ~n:n_keys (rng ~seed ~salt:2) in
  let i = ref (-1) in
  fun () ->
    incr i;
    if hot && !i >= n_keys then order.(draw ()) else order.(!i mod n_keys)

(** One open-loop request: when it fell due, when the generator sent it,
    and when its reply arrived (all absolute seconds). *)
type timing = { due : float; sent : float; recv : float }

(** Latency counts from the due time, never from the send: a generator
    or server stall is charged to every request queued behind it. *)
let latency (t : timing) : float = t.recv -. t.due

(** How late the generator itself ran. *)
let lateness (t : timing) : float = t.sent -. t.due
