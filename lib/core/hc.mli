(** Generic hash-cons tables, sharded for contention-free hot paths.

    A table maps *shallow nodes* (whose children, if any, are already
    interned) to unique *elements* carrying a per-node id and the node's
    precomputed structural hash.  Interning the same node twice returns
    the physically same element, so for hash-consed types physical
    equality coincides with structural equality and [equal]/[hash]/
    [compare] are O(1).

    Invariants:
    - ids are unique per table and never reused (allocated from one
      atomic per-table counter), so id equality implies structural
      equality for the table's whole lifetime;
    - entries are never evicted — eviction would allow two live,
      structurally equal elements with different ids, breaking the
      physical-equality invariant.  Tables grow monotonically, bounded
      by the number of distinct nodes built in the process;
    - ids depend on interning order and therefore on scheduling under
      the engine's domain pool.  Never let ids influence output
      ordering or anything compared across processes; the caller's
      [hkey] (structural, deterministic) is the cross-run-stable hash.

    Thread safety and scaling: the table is split into 16 shards
    selected by the low bits of [hkey], each with its own mutex, so
    interns from different domains only contend when they hash into
    the same shard.  The read path probes an immutable bucket snapshot
    (atomic loads, no lock); only a miss falls back to the shard-locked
    insert path, which re-probes before building.  Hit/miss counters
    are atomics, so [stats] never blocks an interning domain.  Under a
    serial schedule ([--jobs 1]) interning order — and therefore every
    assigned id — is identical to the historic single-mutex design. *)

type stats = { hits : int; misses : int; size : int }

type ('node, 'elt) t

(** [create ~name ~equal ~build ()] — [equal] is *shallow* equality
    between a candidate node and a stored element (children compared
    physically); [build ~id ~hkey node] constructs the element for a
    fresh node.  [name] keys the table in {!registry}. *)
val create :
  name:string ->
  equal:('node -> 'elt -> bool) ->
  build:(id:int -> hkey:int -> 'node -> 'elt) ->
  unit ->
  ('node, 'elt) t

(** [intern t ~hkey node] returns the unique element for [node], building
    it on first sight.  [hkey] must be a deterministic structural hash of
    [node] (computed from the children's stored hashes). *)
val intern : ('node, 'elt) t -> hkey:int -> 'node -> 'elt

val name : _ t -> string

val stats : _ t -> stats

(** Hit/miss/size of every table created so far, in creation order. *)
val registry : unit -> (string * stats) list
