(** Global SMT verdict cache.

    The enforcement engine re-decides the same path-condition formulas
    over and over: consecutive program versions share most of their
    traces, and every rule of a book re-explores overlapping paths.  This
    module wraps {!Solver.solve} / {!Solver.check_trace} with a memo
    table keyed by the *id* of the simplified formula — formulas are
    hash-consed, so equal ids denote the same formula and a cached
    verdict is always sound to reuse.  The hit path allocates nothing:
    no rendering, one int hash probe (the pre-hash-consing cache keyed
    by canonical renderings rebuilt a string on every lookup).

    Concurrency: the store is two-level.  Each domain owns a *bounded
    front cache* in [Domain.DLS] — a warm hit there takes zero locks —
    which spills to a process-global store sharded by key, so domains
    only contend on a shard mutex when they miss locally on formulas
    that hash to the same shard.  Verdicts are deterministic functions
    of the formula and interned ids are never reused, so a front-cache
    entry can survive a global-shard capacity reset without ever lying:
    a stale entry still maps its id to the one verdict that formula
    has.  The cache is disabled by default so that code paths outside
    the engine behave exactly as before.  Hit/miss counters feed the
    engine's "solver calls saved" statistic; exactly one hit or miss is
    recorded per enabled query, so counter totals (and with them the
    engine's printed stats) are byte-identical to the single-mutex
    design at any jobs count. *)

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

(* ------------------------------------------------------------------ *)
(* Sharded global store                                                *)
(* ------------------------------------------------------------------ *)

let shard_count = 16

let shard_mask = shard_count - 1

(* id -> (simplified formula, verdict).  The formula rides along purely
   for {!entries}/{!restore}: snapshots must re-key by re-interning in
   the loading process (ids are process-local), so the table has to
   remember what each id denoted.  Interned nodes are never evicted
   anyway, so this pins no extra memory. *)
type shard = {
  sh_lock : Mutex.t;
  sh_tbl : (int, Formula.t * Solver.verdict) Hashtbl.t;
}

let shards =
  Array.init shard_count (fun _ ->
      { sh_lock = Mutex.create (); sh_tbl = Hashtbl.create 128 })

let shard_of key = shards.(key land shard_mask)

(* Same total capacity as the historic single table (2^17), split
   evenly; a full shard resets alone, shedding 1/16 of the cache
   instead of cold-starting every domain at once. *)
let max_entries_per_shard = 1 lsl 13

module Metrics = Telemetry.Metrics

(* One query records exactly one hit (answered by a shard or by the
   domain's front cache) or one miss; [local_hits] is the front-cache
   subset of [hits]. *)
let hits = Metrics.counter "smt.memo.hits" ~doc:"SMT verdict-cache hits"

let misses = Metrics.counter "smt.memo.misses" ~doc:"SMT verdict-cache misses"

let local_hits =
  Metrics.counter "smt.memo.local_hits"
    ~doc:"verdict-cache hits answered lock-free by a domain-local front cache"

(* eviction pressure: a hot workload whose working set exceeds
   [local_cap] churns here *)
let local_evictions =
  Metrics.counter "smt.memo.local_evict"
    ~doc:"domain-local SMT front-cache resets forced by the cap"

let size () =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.sh_lock;
      let n = Hashtbl.length sh.sh_tbl in
      Mutex.unlock sh.sh_lock;
      acc + n)
    0 shards

let () =
  Metrics.gauge "smt.memo.entries" size
    ~doc:"formulas in the global verdict store (capacity 16 x 8192)"

(* ------------------------------------------------------------------ *)
(* Domain-local front cache                                            *)
(* ------------------------------------------------------------------ *)

(* Bounded id -> verdict table per domain.  Invalidation is by epoch:
   [reset] bumps the process epoch, and each domain lazily drops its
   front cache the next time it looks (a domain cannot safely clear
   another domain's table).  Overflow resets the local table only —
   the global store stays warm. *)
let epoch = Atomic.make 0

let local_cap = 1024

type local = {
  mutable l_epoch : int;
  l_tbl : (int, Solver.verdict) Hashtbl.t;
}

let local_key : local Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { l_epoch = Atomic.get epoch; l_tbl = Hashtbl.create 64 })

let local () =
  let l = Domain.DLS.get local_key in
  let e = Atomic.get epoch in
  if l.l_epoch <> e then begin
    Hashtbl.reset l.l_tbl;
    l.l_epoch <- e
  end;
  l

let store_local (l : local) (key : int) (v : Solver.verdict) : unit =
  if Hashtbl.length l.l_tbl >= local_cap then begin
    Metrics.bump local_evictions;
    Hashtbl.reset l.l_tbl
  end;
  Hashtbl.replace l.l_tbl key v

(** Eagerly create (or epoch-sync) the calling domain's front cache;
    the engine's pool calls this at worker start so the first query on
    a fresh domain pays no setup. *)
let init_local () = ignore (local ())

let reset () =
  Array.iter
    (fun sh ->
      Mutex.lock sh.sh_lock;
      Hashtbl.reset sh.sh_tbl;
      Mutex.unlock sh.sh_lock)
    shards;
  Metrics.reset hits;
  Metrics.reset local_hits;
  Metrics.reset misses;
  (* invalidate every domain's front cache lazily *)
  Atomic.incr epoch

(* ------------------------------------------------------------------ *)
(* The cached solve path                                               *)
(* ------------------------------------------------------------------ *)

(* The cache key: the interned id of the simplified formula.
   [Formula.simplify] dedups and flattens (modulo canonical atoms) and
   hash-consing makes ids injective on structure, so equal keys imply
   equal formulas — the soundness requirement.  Syntactically different
   but equivalent formulas may miss; that only costs a solver call.
   (Dropping an entry at a shard's capacity reset is equally harmless:
   ids are never reused, so a stale table can only miss, never lie.) *)
let key_of (f : Formula.t) : int * Formula.t =
  let s = Formula.simplify f in
  (Formula.id s, s)

(* The single lookup/store path both {!solve} and {!solve_in} run:
   front cache, then shard, then [solve_miss] on the simplified
   formula.  [Unknown] verdicts come from budgets, faults, or open
   breakers — transient conditions that must not poison either cache
   level; the next query recomputes. *)
let with_cache (f : Formula.t) (solve_miss : Formula.t -> Solver.verdict) :
    Solver.verdict =
  let key, simplified = key_of f in
  let l = local () in
  match Hashtbl.find_opt l.l_tbl key with
  | Some v ->
      Metrics.bump hits;
      Metrics.bump local_hits;
      v
  | None -> (
      let sh = shard_of key in
      let cached =
        Mutex.lock sh.sh_lock;
        let r = Hashtbl.find_opt sh.sh_tbl key in
        Mutex.unlock sh.sh_lock;
        r
      in
      match cached with
      | Some (_, v) ->
          Metrics.bump hits;
          store_local l key v;
          v
      | None -> (
          Metrics.bump misses;
          let v = solve_miss simplified in
          match v with
          | Solver.Unknown _ -> v
          | Solver.Sat _ | Solver.Unsat ->
              Mutex.lock sh.sh_lock;
              if Hashtbl.length sh.sh_tbl >= max_entries_per_shard then
                Hashtbl.reset sh.sh_tbl;
              Hashtbl.replace sh.sh_tbl key (simplified, v);
              Mutex.unlock sh.sh_lock;
              store_local l key v;
              v))

(** [solve f]: like {!Solver.solve}, but consults the verdict cache when
    enabled.  Verdicts (including models) are deterministic functions of
    the formula, so cached and uncached runs agree. *)
let solve (f : Formula.t) : Solver.verdict =
  if not (enabled ()) then Solver.solve f
  else with_cache f (fun simplified -> Solver.solve simplified)

(** Context-aware variant: like {!solve} but the miss path solves through
    {!Solver.solve_in_context}, reusing the assumption context's warm
    incremental state.  Same cache key (the simplified formula's id), so
    trie-driven and per-trace checking populate and hit the very same
    entries; [Unknown] is never stored, exactly as above. *)
let solve_in (ctx : Solver.context) (f : Formula.t) : Solver.verdict =
  if not (enabled ()) then Solver.solve_in_context ctx f
  else with_cache f (fun simplified -> Solver.solve_in_context ctx simplified)

(** Cached complement check (same contract as {!Solver.check_trace}). *)
let check_trace ~(pc : Formula.t) ~(checker : Formula.t) : Solver.trace_check =
  match solve (Formula.conj [ pc; Formula.negate checker ]) with
  | Solver.Unsat -> Solver.Verified
  | Solver.Sat model -> Solver.Violation model
  | Solver.Unknown reason -> Solver.Undecided reason

(** Cached direct check (same contract as {!Solver.check_trace_direct}). *)
let check_trace_direct ~(pc : Formula.t) ~(checker : Formula.t) :
    Solver.trace_check =
  match solve (Formula.conj [ pc; checker ]) with
  | Solver.Unsat -> Solver.Violation []
  | Solver.Sat _ -> Solver.Verified
  | Solver.Unknown reason -> Solver.Undecided reason

(** Trie-driven complement check: [ctx] holds the pc prefix the trie walk
    has pushed so far; the caller guarantees the context's assumptions
    conjoin to [pc] (so the full conjunction entails them).  Cache key
    and verdict are identical to {!check_trace} — the context only makes
    misses cheaper. *)
let check_trace_in (ctx : Solver.context) ~(pc : Formula.t)
    ~(checker : Formula.t) : Solver.trace_check =
  match solve_in ctx (Formula.conj [ pc; Formula.negate checker ]) with
  | Solver.Unsat -> Solver.Verified
  | Solver.Sat model -> Solver.Violation model
  | Solver.Unknown reason -> Solver.Undecided reason

(** Trie-driven direct check (contract of {!Solver.check_trace_direct}). *)
let check_trace_direct_in (ctx : Solver.context) ~(pc : Formula.t)
    ~(checker : Formula.t) : Solver.trace_check =
  match solve_in ctx (Formula.conj [ pc; checker ]) with
  | Solver.Unsat -> Solver.Violation []
  | Solver.Sat _ -> Solver.Verified
  | Solver.Unknown reason -> Solver.Undecided reason

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

(** Every cached (simplified formula, verdict) pair, unordered.  The
    caller converts to {!Wire} forms before persisting — interned values
    must never be marshalled raw (ids are process-local). *)
let entries () : (Formula.t * Solver.verdict) list =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.sh_lock;
      let es = Hashtbl.fold (fun _ e acc -> e :: acc) sh.sh_tbl acc in
      Mutex.unlock sh.sh_lock;
      es)
    [] shards

(** Seed the cache from a snapshot: each formula is re-simplified and
    re-keyed by its id {e in this process} (the loader already rebuilt
    it through the smart constructors).  [Unknown] verdicts and entries
    already present are skipped; counters are untouched — warm entries
    count as hits only when a query actually lands on them.  Entries
    are grouped by shard first, so each shard's lock is taken once per
    batch instead of once per entry.  Returns the number of entries
    added. *)
let restore (es : (Formula.t * Solver.verdict) list) : int =
  (* re-interning (key_of simplifies and hashes) runs outside any lock *)
  let groups : (int * Formula.t * Solver.verdict) list array =
    Array.make shard_count []
  in
  List.iter
    (fun (f, v) ->
      match v with
      | Solver.Unknown _ -> ()
      | Solver.Sat _ | Solver.Unsat ->
          let key, simplified = key_of f in
          let i = key land shard_mask in
          groups.(i) <- (key, simplified, v) :: groups.(i))
    es;
  let added = ref 0 in
  Array.iteri
    (fun i group ->
      match List.rev group (* preserve input order: first entry wins *) with
      | [] -> ()
      | group ->
          let sh = shards.(i) in
          Mutex.lock sh.sh_lock;
          List.iter
            (fun (key, simplified, v) ->
              if
                (not (Hashtbl.mem sh.sh_tbl key))
                && Hashtbl.length sh.sh_tbl < max_entries_per_shard
              then begin
                Hashtbl.replace sh.sh_tbl key (simplified, v);
                incr added
              end)
            group;
          Mutex.unlock sh.sh_lock)
    groups;
  !added
