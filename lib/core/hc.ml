type stats = { hits : int; misses : int; size : int }

(* Sharding: the table is split into [shard_count] independent shards
   selected by the low bits of the caller's structural hash, so
   concurrent interns from the engine's worker domains only collide on
   a lock when they hash into the same shard.  Buckets inside a shard
   are immutable lists held in [Atomic.t] slots: the hot read path
   probes its bucket with two atomic loads and no lock at all, and the
   release/acquire pairing of [Atomic.set]/[Atomic.get] guarantees a
   reader that sees a freshly consed element also sees its initialized
   fields.  A lock-free probe that misses (including a stale-snapshot
   miss during a resize) falls back to the shard-locked insert path,
   which re-probes before building — so the never-evict and
   unique-id invariants hold exactly as in the single-mutex design. *)
let shard_bits = 4

let shard_count = 1 lsl shard_bits

let shard_mask = shard_count - 1

(* Lock acquisitions that found the shard mutex already held, across
   every table in the process — the telemetry signal that shard count
   (or the lock-free read path) is no longer absorbing parallelism. *)
let contention =
  Telemetry.Metrics.counter "core.shard.contention"
    ~doc:"hash-cons shard-lock acquisitions that had to wait (0 at jobs=1)"

(* Buckets store (hkey, elt) pairs: the hash rides along so a resize can
   rehash without asking the element for it, and scans reject non-equal
   entries with one int compare before calling the user's [equal]. *)
type 'elt shard = {
  sh_lock : Mutex.t;
  sh_buckets : (int * 'elt) list Atomic.t array Atomic.t;
      (* the published snapshot; replaced wholesale on resize *)
  mutable sh_count : int;  (* entries in this shard; writers only *)
}

type ('node, 'elt) t = {
  name : string;
  equal : 'node -> 'elt -> bool;
  build : id:int -> hkey:int -> 'node -> 'elt;
  shards : 'elt shard array;
  next_id : int Atomic.t;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
}

(* Registry of all tables, for telemetry: the element types differ per
   table, so we store a stats thunk rather than the table itself.
   Newest first — cons on create (O(1) per table), reverse at read. *)
let registry_lock = Mutex.create ()

let registered : (string * (unit -> stats)) list ref = ref []

(* Counters are atomics and ids are never reused, so a stats read takes
   no lock; the triple is a monotone snapshot (size = ids handed out =
   distinct nodes, exactly as in the single-mutex design). *)
let stats t =
  {
    hits = Atomic.get t.hit_count;
    misses = Atomic.get t.miss_count;
    size = Atomic.get t.next_id;
  }

let initial_bucket_count = 64 (* per shard; doubles on resize *)

let make_shard () =
  {
    sh_lock = Mutex.create ();
    sh_buckets =
      Atomic.make (Array.init initial_bucket_count (fun _ -> Atomic.make []));
    sh_count = 0;
  }

let create ~name ~equal ~build () =
  let t =
    {
      name;
      equal;
      build;
      shards = Array.init shard_count (fun _ -> make_shard ());
      next_id = Atomic.make 0;
      hit_count = Atomic.make 0;
      miss_count = Atomic.make 0;
    }
  in
  Mutex.lock registry_lock;
  registered := (name, fun () -> stats t) :: !registered;
  Mutex.unlock registry_lock;
  t

let name t = t.name

(* Bucket index within a shard: the shard already consumed the low
   [shard_bits] of the hash, so index by the next bits ([lsr] keeps the
   result non-negative for any hkey). *)
let bucket_index arr hkey = (hkey lsr shard_bits) land (Array.length arr - 1)

let rec find_in_bucket equal hkey node = function
  | [] -> None
  | (h, e) :: rest ->
      if h = hkey && equal node e then Some e
      else find_in_bucket equal hkey node rest

(* Caller holds [sh_lock].  Grow the bucket array and republish; readers
   holding the old snapshot can only miss and fall back to the lock. *)
let resize (sh : _ shard) =
  let old = Atomic.get sh.sh_buckets in
  let fresh =
    Array.init (2 * Array.length old) (fun _ -> Atomic.make [])
  in
  Array.iter
    (fun slot ->
      List.iter
        (fun ((hkey, _) as entry) ->
          let dst = fresh.(bucket_index fresh hkey) in
          Atomic.set dst (entry :: Atomic.get dst))
        (Atomic.get slot))
    old;
  Atomic.set sh.sh_buckets fresh

let intern t ~hkey node =
  let sh = t.shards.(hkey land shard_mask) in
  (* hot path: probe the published snapshot without the lock *)
  let arr = Atomic.get sh.sh_buckets in
  match
    find_in_bucket t.equal hkey node
      (Atomic.get arr.(bucket_index arr hkey))
  with
  | Some e ->
      Atomic.incr t.hit_count;
      e
  | None ->
      (* miss (or stale snapshot): take the shard lock and re-probe *)
      if not (Mutex.try_lock sh.sh_lock) then begin
        Telemetry.Metrics.bump contention;
        Mutex.lock sh.sh_lock
      end;
      let arr = Atomic.get sh.sh_buckets in
      let slot = arr.(bucket_index arr hkey) in
      let bucket = Atomic.get slot in
      let elt =
        match find_in_bucket t.equal hkey node bucket with
        | Some e ->
            Atomic.incr t.hit_count;
            e
        | None ->
            let id = Atomic.fetch_and_add t.next_id 1 in
            Atomic.incr t.miss_count;
            let e = t.build ~id ~hkey node in
            Atomic.set slot ((hkey, e) :: bucket);
            sh.sh_count <- sh.sh_count + 1;
            if sh.sh_count > 2 * Array.length arr then resize sh;
            e
      in
      Mutex.unlock sh.sh_lock;
      elt

let registry () =
  Mutex.lock registry_lock;
  let tables = List.rev !registered in
  Mutex.unlock registry_lock;
  List.map (fun (n, get) -> (n, get ())) tables
