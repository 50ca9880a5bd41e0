(** Global SMT verdict cache.

    The enforcement engine re-decides the same path-condition formulas
    over and over: consecutive program versions share most of their
    traces, and every rule of a book re-explores overlapping paths.  This
    module wraps {!Solver.solve} / {!Solver.check_trace} with a memo
    table keyed by the *id* of the simplified formula — formulas are
    hash-consed, so equal ids denote the same formula and a cached
    verdict is always sound to reuse.  The hit path allocates nothing:
    no rendering, one int hash probe.

    One mutex-protected table serves every domain.  The solver is a
    fraction of a percent of a scan, so the lock is not a bottleneck.
    The cache is disabled by default so that code paths outside the
    engine behave exactly as before.  Hit/miss counters feed the
    engine's "solver calls saved" statistic; exactly one hit or miss is
    recorded per enabled query, so counter totals are the same at any
    jobs count. *)

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

(* id -> (simplified formula, verdict).  The formula rides along purely
   for {!entries}/{!restore}: snapshots must re-key by re-interning in
   the loading process (ids are process-local), so the table has to
   remember what each id denoted.  Interned nodes are never evicted
   anyway, so this pins no extra memory. *)
let table : (int, Formula.t * Solver.verdict) Hashtbl.t = Hashtbl.create 2048

let lock = Mutex.create ()

let max_entries = 1 lsl 17

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

module Metrics = Telemetry.Metrics

let hits = Metrics.counter "smt.memo.hits" ~doc:"SMT verdict-cache hits"

let misses = Metrics.counter "smt.memo.misses" ~doc:"SMT verdict-cache misses"

let size () = locked (fun () -> Hashtbl.length table)

let () =
  Metrics.gauge "smt.memo.entries" size
    ~doc:"formulas in the verdict store (capacity 131072)"

let reset () =
  locked (fun () -> Hashtbl.reset table);
  Metrics.reset hits;
  Metrics.reset misses

(* The cache key: the interned id of the simplified formula.
   [Formula.simplify] dedups and flattens (modulo canonical atoms) and
   hash-consing makes ids injective on structure, so equal keys imply
   equal formulas — the soundness requirement.  Syntactically different
   but equivalent formulas may miss; that only costs a solver call.
   (Dropping every entry at the capacity reset is equally harmless: ids
   are never reused, so a stale table can only miss, never lie.) *)
let key_of (f : Formula.t) : int * Formula.t =
  let s = Formula.simplify f in
  (Formula.id s, s)

(** [solve f]: like {!Solver.solve}, but consults the verdict cache when
    enabled.  Verdicts (including models) are deterministic functions of
    the formula, so cached and uncached runs agree.  [Unknown] verdicts
    come from budgets, faults, or open breakers — transient conditions
    that must not poison the cache; the next query recomputes. *)
let solve (f : Formula.t) : Solver.verdict =
  if not (enabled ()) then Solver.solve f
  else
    let key, simplified = key_of f in
    match locked (fun () -> Hashtbl.find_opt table key) with
    | Some (_, v) ->
        Metrics.bump hits;
        v
    | None -> (
        Metrics.bump misses;
        let v = Solver.solve simplified in
        match v with
        | Solver.Unknown _ -> v
        | Solver.Sat _ | Solver.Unsat ->
            locked (fun () ->
                if Hashtbl.length table >= max_entries then Hashtbl.reset table;
                Hashtbl.replace table key (simplified, v));
            v)

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

(** Every cached (simplified formula, verdict) pair, unordered.  The
    caller converts to {!Wire} forms before persisting — interned values
    must never be marshalled raw (ids are process-local). *)
let entries () : (Formula.t * Solver.verdict) list =
  locked (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) table [])

(** Seed the cache from a snapshot: each formula is re-simplified and
    re-keyed by its id {e in this process} (the loader already rebuilt
    it through the smart constructors).  [Unknown] verdicts, entries
    already present and entries past capacity are skipped; counters are
    untouched — warm entries count as hits only when a query actually
    lands on them.  Returns the number of entries added. *)
let restore (es : (Formula.t * Solver.verdict) list) : int =
  (* re-interning (key_of simplifies and hashes) runs outside the lock *)
  let keyed =
    List.filter_map
      (fun (f, v) ->
        match v with
        | Solver.Unknown _ -> None
        | Solver.Sat _ | Solver.Unsat ->
            let key, simplified = key_of f in
            Some (key, simplified, v))
      es
  in
  locked (fun () ->
      List.fold_left
        (fun added (key, simplified, v) ->
          if Hashtbl.mem table key || Hashtbl.length table >= max_entries then
            added
          else begin
            Hashtbl.replace table key (simplified, v);
            added + 1
          end)
        0 keyed)
