(** Generic mutex-protected memo cache with hit/miss counters.

    The engine's report cache is an instance ([string] keys →
    {!Checker.rule_report}); the SMT verdict cache lives one layer down
    in {!Smt.Memo} so that the checker can reach it without depending on
    the engine.  Eviction is by epoch: when the table exceeds its
    capacity it is cleared wholesale — crude, but bounded, allocation-
    free on the hot path, and irrelevant to correctness (a miss merely
    recomputes). *)

type ('k, 'v) t = {
  name : string;
  capacity : int;
  lock : Mutex.t;
  table : ('k, 'v) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 1 lsl 16) ~(name : string) () : ('k, 'v) t =
  {
    name;
    capacity;
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    hits = 0;
    misses = 0;
  }

let name t = t.name

(** Counted lookup: bumps the hit or miss counter. *)
let find (t : ('k, 'v) t) (k : 'k) : 'v option =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.table k in
  (match r with
  | Some _ -> t.hits <- t.hits + 1
  | None -> t.misses <- t.misses + 1);
  Mutex.unlock t.lock;
  r

(** Uncounted lookup (for peeking without skewing statistics). *)
let peek (t : ('k, 'v) t) (k : 'k) : 'v option =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.table k in
  Mutex.unlock t.lock;
  r

let add (t : ('k, 'v) t) (k : 'k) (v : 'v) : unit =
  Mutex.lock t.lock;
  if Hashtbl.length t.table >= t.capacity then Hashtbl.reset t.table;
  Hashtbl.replace t.table k v;
  Mutex.unlock t.lock

(** [find_or_add t k compute]: counted lookup, computing and storing on a
    miss.  [compute] runs outside the lock (it may be expensive); a
    concurrent duplicate computation is benign because [compute] is
    deterministic per key. *)
let find_or_add (t : ('k, 'v) t) (k : 'k) (compute : unit -> 'v) : 'v =
  match find t k with
  | Some v -> v
  | None ->
      let v = compute () in
      add t k v;
      v

let with_lock t f =
  Mutex.lock t.lock;
  let r = f () in
  Mutex.unlock t.lock;
  r

let hits t = with_lock t (fun () -> t.hits)

let misses t = with_lock t (fun () -> t.misses)

let size t = with_lock t (fun () -> Hashtbl.length t.table)

let reset t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      t.hits <- 0;
      t.misses <- 0)
