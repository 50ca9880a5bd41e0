(** Seeded procedural corpus generator (the ROADMAP's scale-out axis).

    Composes the paper's four recurring bug-pattern families — missing
    state guard, TTL/expiry check, blocking I/O in lock scope, observer
    staleness — into synthetic MiniJava systems with staged histories,
    matching tickets, diffs, regression tests, and green baselines.
    Every generated case is a structural sibling of a hand-written
    {!Registry.builtin} case, so it passes {!Case.validate} and flows
    through the unchanged pipeline: learn from the stage-1 ticket,
    detect the planted regression at stage 2, go clean at stage 3.

    Determinism contract: everything is a pure function of [(seed, k)]
    where [k] is the global case index.  Case [k] is byte-identical in
    every registry that contains it, regardless of [scale], so a fuzzer
    repro is just [lisa corpus synth --seed N --case K].  No wall clock,
    no global RNG — an LCG stream per case, split so that knob
    overrides (the minimizer) never shift unrelated draws. *)

let sf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Deterministic RNG                                                   *)
(* ------------------------------------------------------------------ *)

module Rng = struct
  type t = { mutable s : int }

  let make seed = { s = (seed land 0x3FFFFFFF) lor 1 }

  let next r =
    r.s <- ((r.s * 1664525) + 1013904223) land 0x3FFFFFFF;
    r.s

  let int r n = if n <= 0 then 0 else (next r lsr 7) mod n
  let pick r arr = arr.(int r (Array.length arr))
  let range r lo hi = lo + int r (hi - lo + 1)
end

(* Split one user seed into independent per-case streams. *)
let case_seed seed k =
  ((seed * 1_000_003) lxor ((k + 1) * 0x61C8864F)) land 0x3FFFFFFF

(* ------------------------------------------------------------------ *)
(* Families and knobs                                                  *)
(* ------------------------------------------------------------------ *)

type family = State_guard | Ttl_expiry | Lock_io | Observer_stale

let families = [ State_guard; Ttl_expiry; Lock_io; Observer_stale ]
let cases_per_system = List.length families

let family_name = function
  | State_guard -> "guard"
  | Ttl_expiry -> "ttl"
  | Lock_io -> "lock"
  | Observer_stale -> "observer"

type knobs = {
  k_aux_tests : int;  (** 0-2 extra benign tests *)
  k_fixture_extra : int;  (** 0-2 extra healthy fixture entries *)
  k_helper : bool;  (** decorative read-only helper method *)
}

let min_knobs = { k_aux_tests = 0; k_fixture_extra = 0; k_helper = false }

let knobs_at ~seed k =
  (* separate stream: overriding knobs must not shift identifier draws *)
  let r = Rng.make (case_seed seed k lxor 0x5BD1E99) in
  {
    k_aux_tests = Rng.int r 3;
    k_fixture_extra = Rng.int r 3;
    k_helper = Rng.int r 2 = 0;
  }

(* ------------------------------------------------------------------ *)
(* Name pools                                                          *)
(* ------------------------------------------------------------------ *)

let system_nouns =
  [|
    "ledger"; "quorum"; "vault"; "mesh"; "relay"; "atlas"; "beacon"; "harbor";
    "garnet"; "onyx"; "krait"; "fjord"; "cinder"; "drift"; "ember"; "flint";
  |]

let capitalize s = String.capitalize_ascii s

(* ------------------------------------------------------------------ *)
(* Template: missing state guard (hdfs-safemode sibling)               *)
(* ------------------------------------------------------------------ *)

let gen_state_guard r ~system ~tag ~ids ~knobs =
  let mgr = Rng.pick r [| "Registry"; "Catalog"; "Journal"; "Directory" |] in
  let flag, flag_cap, exc =
    Rng.pick r
      [|
        ("frozen", "Frozen", "FrozenStateException");
        ("sealedUp", "SealedUp", "SealedStateException");
        ("readonly", "Readonly", "ReadOnlyModeException");
        ("draining", "Draining", "DrainingModeException");
      |]
  in
  let op1 = Rng.pick r [| "admit"; "record"; "enlist"; "post" |] in
  let op2 =
    Rng.pick r [| "merge"; "compactInto"; "fold"; "absorb" |]
  in
  let reason =
    Rng.pick r
      [| "bulk imports"; "mirror sync"; "small-entry compaction"; "rollup" |]
  in
  let v1 = Rng.range r 1 9 in
  let mgr_c = sf "%s%s" mgr tag in
  let t = String.lowercase_ascii tag in
  let guard = sf {|    if (this.is%s()) {
      throw "%s";
    }|} flag_cap exc in
  let id1, id2 = ids in
  let source stage =
    let guard1 = stage >= 1 in
    let path2 = stage >= 2 in
    let guard2 = stage >= 3 in
    String.concat "\n"
      ([
         sf {|// %s: %s lifecycle writes
class %s {
  field %s: bool = false;
  field entries: map;
  field mutations: int = 0;
  method is%s(): bool {
    return this.%s;
  }
  // common mutation application: every write path ends here
  method applyWrite(key: str, v: int) {
    mapPut(this.entries, key, v);
    this.mutations = this.mutations + 1;
  }
  method enter%s() {
    this.%s = true;
  }
  method leave%s() {
    this.%s = false;
  }
  method entryCount(): int {
    return mapSize(this.entries);
  }
  method getEntry(key: str): int {
    if (!mapContains(this.entries, key)) {
      throw "EntryNotFoundException";
    }
    var v: int = mapGet(this.entries, key);
    return v;
  }|}
           system (String.lowercase_ascii mgr) mgr_c flag flag_cap flag
           flag_cap flag flag_cap flag;
       ]
      @ (if knobs.k_helper then
           [
             {|  method hasEntry(key: str): bool {
    return mapContains(this.entries, key);
  }|};
           ]
         else [])
      @ [ sf {|  method %s(key: str) {|} op1 ]
      @ (if guard1 then [ guard ] else [])
      @ [ sf {|    this.applyWrite(key, %d);
  }|} v1 ]
      @ (if path2 then
           [ sf {|  method %s(key: str, other: str) {|} op2 ]
           @ (if guard2 then [ guard ] else [])
           @ [
               sf
                 {|    var a: int = this.getEntry(key);
    var b2: int = this.getEntry(other);
    this.applyWrite(key, a + b2);
    mapRemove(this.entries, other);
  }|};
             ]
         else [])
      @ [
          sf {|}

method test_%s_%s_normal_mode() {
  var m: %s = new %s();
  m.%s("alpha");
  assert (m.mutations == 1, "%s applied");
}

method test_%s_toggle_and_reads() {
  var m: %s = new %s();
  m.%s("data");
  m.enter%s();
  // reads keep working in %s mode
  assert (m.getEntry("data") == %d, "read in %s mode");
  assert (m.entryCount() == 1, "count in %s mode");
  m.leave%s();
  m.%s("more");
  assert (m.entryCount() == 2, "writes resume after leaving");
}|}
            t op1 mgr_c mgr_c op1 op1 t mgr_c mgr_c op1 flag_cap flag v1
            flag flag flag_cap op1;
        ]
      @ (if knobs.k_aux_tests >= 1 then
           [
             sf {|method test_%s_missing_entry_rejected() {
  var m: %s = new %s();
  var rejected: bool = false;
  try { var v: int = m.getEntry("nope"); } catch (e) { rejected = true; }
  assert (rejected, "missing entry rejected");
}|}
               t mgr_c mgr_c;
           ]
         else [])
      @ (if knobs.k_aux_tests >= 2 then
           [
             sf {|method test_%s_repeated_writes_counted() {
  var m: %s = new %s();
  m.%s("a");
  m.%s("a");
  assert (m.mutations == 2, "every write counted");
}|}
               t mgr_c mgr_c op1 op1;
           ]
         else [])
      @ (if guard1 then
           [
             sf {|// regression test added with the %s fix
method test_%s_%s_%s_rejected() {
  var m: %s = new %s();
  m.%s = true;
  var rejected: bool = false;
  try { m.%s("x"); } catch (e) { rejected = true; }
  assert (rejected, "%s rejected in %s mode");
  assert (m.mutations == 0, "no mutation in %s mode");
}|}
               id1
               (String.lowercase_ascii
                  (String.concat "" (String.split_on_char '-' id1)))
               op1 flag mgr_c mgr_c flag op1 op1 flag flag;
           ]
         else [])
      @ (if path2 then
           [
             sf {|method test_%s_%s_normal_mode() {
  var m: %s = new %s();
  m.%s("a");
  m.%s("b");
  m.%s("a", "b");
  assert (m.mutations == 3, "%s applied");
}|}
               t op2 mgr_c mgr_c op1 op1 op2 op2;
           ]
         else [])
      @
      if guard2 then
        [
          sf {|// regression test added with the %s fix
method test_%s_%s_%s_rejected() {
  var m: %s = new %s();
  m.%s("a");
  m.%s("b");
  m.%s = true;
  var rejected: bool = false;
  try { m.%s("a", "b"); } catch (e) { rejected = true; }
  assert (rejected, "%s rejected in %s mode");
}|}
            id2
            (String.lowercase_ascii
               (String.concat "" (String.split_on_char '-' id2)))
            op2 flag mgr_c mgr_c op1 op1 flag op2 op2 flag;
        ]
      else [])
  in
  let semantic =
    sf "No %s mutation may be applied while the %s is %s." system
      (String.lowercase_ascii mgr) flag
  in
  ( source,
    Case.Guard,
    sf "%s-mode write protection" flag,
    ( id1,
      sf "%s mutations allowed while the %s is %s" (capitalize op1)
        (String.lowercase_ascii mgr) flag,
      sf
        "%s During recovery, %s requests mutated the %s before its state \
         was consistent, corrupting downstream readers. The fix rejects \
         mutations while %s."
        semantic op1 (String.lowercase_ascii mgr) flag ),
    ( id2,
      sf "%s bypasses %s checks" op2 flag,
      sf
        "%s The %s operation added for %s skipped the %s check every other \
         write performs. The fix adds the same check."
        semantic op2 reason flag ) )

(* ------------------------------------------------------------------ *)
(* Template: TTL / expiry check (hbase-snapshot-ttl sibling)           *)
(* ------------------------------------------------------------------ *)

let gen_ttl r ~system ~tag ~ids ~knobs =
  let item = Rng.pick r [| "Backup"; "Archive"; "Checkpoint"; "Bundle" |] in
  let op1 = Rng.pick r [| "restore"; "mount"; "materialize"; "unpack" |] in
  let op2 = Rng.pick r [| "export"; "replicate"; "mirror"; "copyOut" |] in
  let reason =
    Rng.pick r
      [| "backup tooling"; "cross-cluster sync"; "cold-storage offload";
         "audit tooling" |]
  in
  let ttl = Rng.range r 3 9 * 100 in
  let expiry = Rng.range r 10 19 * 100 in
  let payload = Rng.range r 11 99 in
  let item_c = sf "%s%s" item tag in
  let mgr_c = sf "%sManager%s" item tag in
  let t = String.lowercase_ascii tag in
  let low_item = String.lowercase_ascii item in
  let guard =
    sf {|    if (it.ttl > 0 && nowTs >= it.expiryTs) {
      throw "%sTTLExpiredException";
    }|} item
  in
  let id1, id2 = ids in
  let tid id =
    String.lowercase_ascii (String.concat "" (String.split_on_char '-' id))
  in
  let fixture =
    String.concat "\n"
      ([
         sf {|method make%s(): %s {
  var mg: %s = new %s();
  // live %s: expires at ts=%d
  mg.register(new %s("live", %d, %d, %d));
  // no-ttl %s: never expires
  mg.register(new %s("forever", 0, 0, %d));|}
           mgr_c mgr_c mgr_c mgr_c low_item expiry item_c ttl expiry payload
           low_item item_c (payload + 1);
       ]
      @ List.init knobs.k_fixture_extra (fun i ->
            sf {|  mg.register(new %s("spare%d", %d, %d, %d));|} item_c i ttl
              (expiry + ((i + 1) * 100))
              (payload + 2 + i))
      @ [ {|  return mg;
}|} ])
  in
  let source stage =
    let guard1 = stage >= 1 in
    let path2 = stage >= 2 in
    let guard2 = stage >= 3 in
    String.concat "\n"
      ([
         sf {|// %s: %s lifecycle and TTL
class %s {
  field name: str;
  field ttl: int;
  field expiryTs: int;
  field payload: int;
  method init(name: str, ttl: int, expiryTs: int, payload: int) {
    this.name = name;
    this.ttl = ttl;
    this.expiryTs = expiryTs;
    this.payload = payload;
  }
}

class %s {
  field items: map;
  field served: int = 0;
  field shipped: int = 0;
  method register(it: %s) {
    mapPut(this.items, it.name, it);
  }
  method itemCount(): int {
    return mapSize(this.items);
  }
  method isExpired(name: str, nowTs: int): bool {
    var it: %s = mapGet(this.items, name);
    if (it == null) {
      throw "%sDoesNotExistException";
    }
    if (it.ttl > 0 && nowTs >= it.expiryTs) {
      return true;
    }
    return false;
  }
  // common payload access: every serving path ends here
  method openPayload(it: %s): int {
    return it.payload;
  }|}
           system low_item item_c mgr_c item_c item_c item item_c;
       ]
      @ (if knobs.k_helper then
           [
             sf {|  method drop(name: str) {
    if (!mapContains(this.items, name)) {
      throw "%sDoesNotExistException";
    }
    mapRemove(this.items, name);
  }|}
               item;
           ]
         else [])
      @ [
          sf {|  method %s(name: str, nowTs: int): int {
    var it: %s = mapGet(this.items, name);
    if (it == null) {
      throw "%sDoesNotExistException";
    }|}
            op1 item_c item;
        ]
      @ (if guard1 then [ guard ] else [])
      @ [
          {|    this.served = this.served + 1;
    return this.openPayload(it);
  }|};
        ]
      @ (if path2 then
           [
             sf {|  // %s reads a %s as its source (added for %s)
  method %s(name: str, nowTs: int): int {
    var it: %s = mapGet(this.items, name);
    if (it == null) {
      throw "%sDoesNotExistException";
    }|}
               op2 low_item reason op2 item_c item;
           ]
           @ (if guard2 then [ guard ] else [])
           @ [
               {|    this.shipped = this.shipped + 1;
    return this.openPayload(it);
  }|};
             ]
         else [])
      @ [ "}"; "" ]
      @ [ fixture ]
      @ [
          sf {|
method test_%s_%s_live() {
  var mg: %s = make%s();
  var p: int = mg.%s("live", %d);
  assert (p == %d, "%s served the right payload");
  assert (mg.served == 1, "%s counted");
}

method test_%s_%s_no_ttl() {
  var mg: %s = make%s();
  var p: int = mg.%s("forever", 99999);
  assert (p == %d, "no-ttl %s always served");
}

method test_%s_%s_missing_rejected() {
  var mg: %s = make%s();
  var rejected: bool = false;
  try { var p: int = mg.%s("nope", 1); } catch (e) { rejected = true; }
  assert (rejected, "missing %s rejected");
}|}
            t op1 mgr_c mgr_c op1 (expiry / 2) payload op1 op1 t op1 mgr_c
            mgr_c op1 (payload + 1) low_item t op1 mgr_c mgr_c op1 low_item;
        ]
      @ (if knobs.k_aux_tests >= 1 then
           [
             sf {|method test_%s_lifecycle() {
  var mg: %s = make%s();
  assert (mg.itemCount() == %d, "fixture registered");
  assert (!mg.isExpired("live", %d), "not expired before ttl");
  assert (mg.isExpired("live", %d), "expired after ttl");
  assert (!mg.isExpired("forever", 99999), "ttl 0 never expires");
}|}
               t mgr_c mgr_c (2 + knobs.k_fixture_extra) (expiry / 2)
               (expiry * 2);
           ]
         else [])
      @ (if knobs.k_aux_tests >= 2 && knobs.k_helper then
           [
             sf {|method test_%s_drop() {
  var mg: %s = make%s();
  mg.drop("forever");
  assert (mg.itemCount() == %d, "%s dropped");
}|}
               t mgr_c mgr_c (1 + knobs.k_fixture_extra) low_item;
           ]
         else [])
      @ (if guard1 then
           [
             sf {|// regression test added with the %s fix
method test_%s_%s_expired_rejected() {
  var mg: %s = make%s();
  var rejected: bool = false;
  try { var p: int = mg.%s("live", %d); } catch (e) { rejected = true; }
  assert (rejected, "expired %s not served");
}|}
               id1 (tid id1) op1 mgr_c mgr_c op1 (expiry * 2) low_item;
           ]
         else [])
      @ (if path2 then
           [
             sf {|method test_%s_%s_live() {
  var mg: %s = make%s();
  var p: int = mg.%s("live", %d);
  assert (p == %d, "%s works");
}|}
               t op2 mgr_c mgr_c op2 (expiry / 2) payload op2;
           ]
         else [])
      @
      if guard2 then
        [
          sf {|// regression test added with the %s fix
method test_%s_%s_expired_rejected() {
  var mg: %s = make%s();
  var rejected: bool = false;
  try { var p: int = mg.%s("live", %d); } catch (e) { rejected = true; }
  assert (rejected, "expired %s not shipped");
}|}
            id2 (tid id2) op2 mgr_c mgr_c op2 (expiry * 2) low_item;
        ]
      else [])
  in
  let semantic =
    sf "No expired %s may be served once its TTL has elapsed." low_item
  in
  ( source,
    Case.Guard,
    sf "%s TTL enforcement" low_item,
    ( id1,
      sf "%s serves expired %ss" (capitalize op1) low_item,
      sf
        "%s The %s path returned payloads for %ss whose TTL had elapsed, \
         resurrecting data the retention policy had retired. The fix checks \
         the expiry timestamp before serving."
        semantic op1 low_item ),
    ( id2,
      sf "%s path skips the TTL check" (capitalize op2),
      sf
        "%s The %s path added for %s skipped the expiry check that %s \
         performs. The fix adds the same check."
        semantic op2 reason op1 ) )

(* ------------------------------------------------------------------ *)
(* Template: blocking I/O in lock scope (zk-serialize-lock sibling)    *)
(* ------------------------------------------------------------------ *)

let gen_lock r ~system ~tag ~ids ~knobs =
  let node = Rng.pick r [| "LogNode"; "TreeNode"; "StoreNode"; "PageNode" |] in
  let writer =
    Rng.pick r
      [| "FlushProcessor"; "SnapshotWriter"; "DumpProcessor"; "SpoolWorker" |]
  in
  let cache =
    Rng.pick r [| "StatsCache"; "QuotaCache"; "DigestCache"; "EpochCache" |]
  in
  let flush = Rng.pick r [| "flushNode"; "spoolNode"; "persistNode" |] in
  let d1 = Rng.range r 1 9 in
  let node_c = sf "%s%s" node tag in
  let writer_c = sf "%s%s" writer tag in
  let cache_c = sf "%s%s" cache tag in
  let t = String.lowercase_ascii tag in
  let id1, id2 = ids in
  let tid id =
    String.lowercase_ascii (String.concat "" (String.split_on_char '-' id))
  in
  let source stage =
    let sync_fixed = stage >= 1 in
    let cache_added = stage >= 2 in
    let cache_fixed = stage >= 3 in
    String.concat "\n"
      ([
         sf {|// %s: snapshot flushing and locks
class %s {
  field path: str;
  field data: int;
  field children: list;
  method init(path: str, data: int) {
    this.path = path;
    this.data = data;
  }
  method getChildren(): list {
    return this.children;
  }
}

class %s {
  field fcount: int = 0;
  field root: %s;
  method init(root: %s) {
    this.root = root;
  }
  method flushCount(): int {
    return this.fcount;
  }|}
           system node_c writer_c node_c node_c;
       ]
      @ (if knobs.k_helper then
           [
             sf {|  method childCount(node: %s): int {
    var kids: list = null;
    synchronized (node) {
      kids = node.getChildren();
    }
    return listSize(kids);
  }|}
               node_c;
           ]
         else [])
      @ (if sync_fixed then
           [
             sf {|  method %s(node: %s) {
    var snapshot: int = 0;
    var kids: list = null;
    synchronized (node) {
      this.fcount = this.fcount + 1;
      snapshot = node.data;
      kids = node.getChildren();
    }
    // blocking write moved outside the monitor (%s fix)
    writeRecord(snapshot);
    var i: int = 0;
    while (i < listSize(kids)) {
      writeRecord(listGet(kids, i));
      i = i + 1;
    }
  }|}
               flush node_c id1;
           ]
         else
           [
             sf {|  method %s(node: %s) {
    var kids: list = null;
    synchronized (node) {
      this.fcount = this.fcount + 1;
      // blocking write while holding the node monitor: writers stall
      writeRecord(node.data);
      kids = node.getChildren();
      var i: int = 0;
      while (i < listSize(kids)) {
        writeRecord(listGet(kids, i));
        i = i + 1;
      }
    }
  }|}
               flush node_c;
           ])
      @ [ "}"; "" ]
      @ (if cache_added then
           if cache_fixed then
             [
               sf {|class %s {
  field table: map;
  field dumped: int = 0;
  method dump() {
    var keys: list = null;
    var count: int = 0;
    synchronized (this) {
      keys = mapKeys(this.table);
      count = mapSize(this.table);
      this.dumped = this.dumped + 1;
    }
    // blocking writes moved outside the monitor (%s fix)
    writeRecord(count);
    var i: int = 0;
    while (i < listSize(keys)) {
      writeRecord(listGet(keys, i));
      i = i + 1;
    }
  }
}
|}
                 cache_c id2;
             ]
           else
             [
               sf {|class %s {
  field table: map;
  field dumped: int = 0;
  method dump() {
    synchronized (this) {
      writeRecord(mapSize(this.table));
      var keys: list = mapKeys(this.table);
      var i: int = 0;
      while (i < listSize(keys)) {
        writeRecord(listGet(keys, i));
        i = i + 1;
      }
      this.dumped = this.dumped + 1;
    }
  }
}
|}
                 cache_c;
             ]
         else [])
      @ [
          sf {|method make%sRoot(): %s {
  var root: %s = new %s("/", %d);
  listAdd(root.children, %d);
  listAdd(root.children, %d);%s
  return root;
}

method test_%s_flush_counts() {
  var root: %s = make%sRoot();
  var w: %s = new %s(root);
  w.%s(root);
  w.%s(root);
  assert (w.flushCount() == 2, "two flushes recorded");
}|}
            writer_c node_c node_c node_c d1 (d1 + 1) (d1 + 2)
            (String.concat ""
               (List.init knobs.k_fixture_extra (fun i ->
                    sf "\n  listAdd(root.children, %d);" (d1 + 3 + i))))
            t node_c writer_c writer_c writer_c flush flush;
        ]
      @ (if knobs.k_helper && knobs.k_aux_tests >= 1 then
           [
             sf {|method test_%s_child_count_under_lock_only() {
  // reading children holds the monitor briefly but performs no I/O
  var root: %s = make%sRoot();
  var w: %s = new %s(root);
  assert (w.childCount(root) == %d, "children counted");
}|}
               t node_c writer_c writer_c writer_c
               (2 + knobs.k_fixture_extra);
           ]
         else [])
      @ (if knobs.k_aux_tests >= 2 then
           [
             sf {|method test_%s_root_data_intact() {
  var root: %s = make%sRoot();
  assert (root.data == %d, "fixture data intact");
}|}
               t node_c writer_c d1;
           ]
         else [])
      @ (if sync_fixed then
           [
             sf {|// regression test added with the %s fix
method test_%s_%s_completes() {
  var root: %s = make%sRoot();
  var w: %s = new %s(root);
  w.%s(root);
  assert (w.fcount == 1, "flush completed");
}|}
               id1 (tid id1) flush node_c writer_c writer_c writer_c flush;
           ]
         else [])
      @ (if cache_added then
           [
             sf {|method test_%s_cache_dump() {
  var cache: %s = new %s();
  mapPut(cache.table, 1, 100);
  mapPut(cache.table, 2, 200);
  cache.dump();
  assert (cache.dumped == 1, "cache dumped");
}|}
               t cache_c cache_c;
           ]
         else [])
      @
      if cache_fixed then
        [
          sf {|// regression test added with the %s fix
method test_%s_cache_dump_completes() {
  var cache: %s = new %s();
  mapPut(cache.table, 5, 500);
  cache.dump();
  assert (cache.dumped == 1, "cache dump completed");
}|}
            id2 (tid id2) cache_c cache_c;
        ]
      else [])
  in
  let semantic =
    sf "No blocking I/O may be performed while holding a %s monitor."
      (String.lowercase_ascii node)
  in
  ( source,
    Case.Lock,
    "snapshot flushing under locks",
    ( id1,
      "Stalled stream can cause cluster to hang due to near-deadlock",
      sf
        "%s %s wrote records to a stalled stream inside a synchronized \
         block, so every writer blocked behind the monitor and the cluster \
         turned into a zombie: write operations were silently blocked. The \
         fix copies state under the lock and performs the blocking writes \
         outside."
        semantic flush ),
    ( id2,
      sf "Synchronized dump in %s blocks the cluster" cache,
      sf
        "%s One release after %s, %s.dump repeated the same pattern: \
         blocking writes inside a synchronized block. The fix snapshots the \
         map under the lock and writes outside."
        semantic id1 cache_c ) )

(* ------------------------------------------------------------------ *)
(* Template: observer staleness (hdfs-observer-locations sibling)      *)
(* ------------------------------------------------------------------ *)

let gen_observer r ~system ~tag ~ids ~knobs =
  let rec_n =
    Rng.pick r [| "LocatedChunk"; "IndexedPage"; "TrackedExtent"; "MappedSlab" |]
  in
  let obs =
    Rng.pick r
      [| "MirrorNode"; "FollowerNode"; "ReplicaServer"; "StandbyNode" |]
  in
  let op1 = Rng.pick r [| "getChunk"; "fetchChunk"; "readChunk" |] in
  let op2 = Rng.pick r [| "listChunks"; "scanChunks"; "batchRead" |] in
  let fresh = Rng.range r 2 6 in
  let rec_c = sf "%s%s" rec_n tag in
  let obs_c = sf "%s%s" obs tag in
  let t = String.lowercase_ascii tag in
  let id1, id2 = ids in
  let tid id =
    String.lowercase_ascii (String.concat "" (String.split_on_char '-' id))
  in
  let guard =
    sf {|    if (c.readyCount == 0) {
      // %s not caught up: retry on the primary
      throw "StaleReplicaRetryException";
    }|}
      (String.lowercase_ascii obs)
  in
  let source stage =
    let guard1 = stage >= 1 in
    let path2 = stage >= 2 in
    let guard2 = stage >= 3 in
    String.concat "\n"
      ([
         sf {|// %s: %s reads
class %s {
  field chunkId: int;
  field readyCount: int;
  method init(chunkId: int, readyCount: int) {
    this.chunkId = chunkId;
    this.readyCount = readyCount;
  }
}

class %s {
  field chunks: map;
  field servedReads: int = 0;
  field servedScans: int = 0;
  method reportChunk(c: %s) {
    mapPut(this.chunks, c.chunkId, c);
  }
  method reportedCount(): int {
    return mapSize(this.chunks);
  }
  method catchUp(chunkId: int, ready: int) {
    // a late report arrives: the %s learns the replicas
    var c: %s = mapGet(this.chunks, chunkId);
    if (c == null) {
      return;
    }
    c.readyCount = ready;
  }
  // common result assembly: every read path ends here
  method buildResult(c: %s): int {
    return c.chunkId;
  }|}
           system (String.lowercase_ascii obs) rec_c obs_c rec_c
           (String.lowercase_ascii obs) rec_c rec_c;
       ]
      @ (if knobs.k_helper then
           [
             sf {|  method readyChunks(): int {
    var ids: list = mapKeys(this.chunks);
    var n: int = 0;
    var i: int = 0;
    while (i < listSize(ids)) {
      var c: %s = mapGet(this.chunks, listGet(ids, i));
      if (c.readyCount > 0) {
        n = n + 1;
      }
      i = i + 1;
    }
    return n;
  }|}
               rec_c;
           ]
         else [])
      @ [
          sf {|  method %s(chunkId: int): int {
    var c: %s = mapGet(this.chunks, chunkId);
    if (c == null) {
      throw "ChunkMissingException";
    }|}
            op1 rec_c;
        ]
      @ (if guard1 then [ guard ] else [])
      @ [
          {|    this.servedReads = this.servedReads + 1;
    return this.buildResult(c);
  }|};
        ]
      @ (if path2 then
           [
             sf {|  // %s added for directory-heavy workloads
  method %s(chunkId: int): int {
    var c: %s = mapGet(this.chunks, chunkId);
    if (c == null) {
      throw "ChunkMissingException";
    }|}
               op2 op2 rec_c;
           ]
           @ (if guard2 then [ guard ] else [])
           @ [
               {|    this.servedScans = this.servedScans + 1;
    return this.buildResult(c);
  }|};
             ]
         else [])
      @ [
          sf {|}

method make%s(): %s {
  var nn: %s = new %s();
  nn.reportChunk(new %s(1, %d));
  // chunk 2's report is delayed: zero replicas known to the %s
  nn.reportChunk(new %s(2, 0));%s
  return nn;
}

method test_%s_read_ready_chunk() {
  var nn: %s = make%s();
  var r: int = nn.%s(1);
  assert (r == 1, "ready chunk served");
  assert (nn.servedReads == 1, "read counted");
}

method test_%s_read_missing_rejected() {
  var nn: %s = make%s();
  var rejected: bool = false;
  try { var r: int = nn.%s(99); } catch (e) { rejected = true; }
  assert (rejected, "missing chunk rejected");
}|}
            obs_c obs_c obs_c obs_c rec_c fresh (String.lowercase_ascii obs)
            rec_c
            (String.concat ""
               (List.init knobs.k_fixture_extra (fun i ->
                    sf "\n  nn.reportChunk(new %s(%d, %d));" rec_c (3 + i)
                      (fresh + i))))
            t obs_c obs_c op1 t obs_c obs_c op1;
        ]
      @ (if knobs.k_aux_tests >= 1 then
           [
             sf {|method test_%s_late_report_catches_up() {
  var nn: %s = make%s();
  assert (nn.reportedCount() == %d, "chunks known");
  nn.catchUp(2, %d);
  var r: int = nn.%s(2);
  assert (r == 2, "chunk served after catch-up");
}|}
               t obs_c obs_c (2 + knobs.k_fixture_extra) fresh op1;
           ]
         else [])
      @ (if knobs.k_aux_tests >= 2 && knobs.k_helper then
           [
             sf {|method test_%s_ready_count() {
  var nn: %s = make%s();
  assert (nn.readyChunks() == %d, "ready chunks counted");
}|}
               t obs_c obs_c (1 + knobs.k_fixture_extra);
           ]
         else [])
      @ (if guard1 then
           [
             sf {|// regression test added with the %s fix
method test_%s_stale_read_redirected() {
  var nn: %s = make%s();
  var redirected: bool = false;
  try { var r: int = nn.%s(2); } catch (e) { redirected = true; }
  assert (redirected, "stale chunk retried on primary");
}|}
               id1 (tid id1) obs_c obs_c op1;
           ]
         else [])
      @ (if path2 then
           [
             sf {|method test_%s_%s_ready_chunk() {
  var nn: %s = make%s();
  var r: int = nn.%s(1);
  assert (r == 1, "%s served");
}|}
               t op2 obs_c obs_c op2 op2;
           ]
         else [])
      @
      if guard2 then
        [
          sf {|// regression test added with the %s fix
method test_%s_%s_stale_redirected() {
  var nn: %s = make%s();
  var redirected: bool = false;
  try { var r: int = nn.%s(2); } catch (e) { redirected = true; }
  assert (redirected, "stale %s redirected");
}|}
            id2 (tid id2) op2 obs_c obs_c op2 op2;
        ]
      else [])
  in
  let semantic =
    sf
      "No read served by the %s may return a chunk without any ready \
       replica."
      (String.lowercase_ascii obs)
  in
  ( source,
    Case.Guard,
    sf "%s chunk freshness" (String.lowercase_ascii obs),
    ( id1,
      sf "Handle stale chunks when reading from the %s"
        (String.lowercase_ascii obs),
      sf
        "%s When the %s's replica report lagged the primary, reads returned \
         replica-less chunks and clients failed. The fix detects zero ready \
         replicas and retries the read on the primary."
        semantic (String.lowercase_ascii obs) ),
    ( id2,
      sf "Avoid %s from the %s when the replica report is delayed" op2
        (String.lowercase_ascii obs),
      sf
        "%s The %s path added for directory-heavy workloads skipped the \
         freshness check that %s performs. The fix adds the same check."
        semantic op2 op1 ) )

(* ------------------------------------------------------------------ *)
(* Case assembly                                                       *)
(* ------------------------------------------------------------------ *)

let ticket_ids k = (sf "SYN-%d" (1000 + (2 * k)), sf "SYN-%d" (1001 + (2 * k)))

let case_with_knobs ~seed ~system ~sys_idx k knobs : Case.t =
  let family = List.nth families (k mod cases_per_system) in
  let r = Rng.make (case_seed seed k) in
  (* tag: unique per case within its system's concatenated source *)
  let tag = sf "K%d" sys_idx in
  let tag =
    match family with
    | State_guard -> tag ^ "g"
    | Ttl_expiry -> tag ^ "t"
    | Lock_io -> tag ^ "l"
    | Observer_stale -> tag ^ "o"
  in
  let tag = String.capitalize_ascii tag in
  let ids = ticket_ids k in
  let id1, id2 = ids in
  let source, kind, feature, (tid1, title1, disc1), (tid2, title2, disc2) =
    match family with
    | State_guard ->
        let src, kind, feature, t1, t2 =
          gen_state_guard r ~system ~tag ~ids ~knobs
        in
        (src, kind, feature, t1, t2)
    | Ttl_expiry ->
        let src, kind, feature, t1, t2 = gen_ttl r ~system ~tag ~ids ~knobs in
        (src, kind, feature, t1, t2)
    | Lock_io ->
        let src, kind, feature, t1, t2 = gen_lock r ~system ~tag ~ids ~knobs in
        (src, kind, feature, t1, t2)
    | Observer_stale ->
        let src, kind, feature, t1, t2 =
          gen_observer r ~system ~tag ~ids ~knobs
        in
        (src, kind, feature, t1, t2)
  in
  ignore (tid1, tid2);
  let first_year = Rng.range r 2012 2019 in
  let last_year = first_year + Rng.range r 1 5 in
  let violating = 1 + Rng.int r 2 in
  (* stages are pure functions of (seed, k, knobs): precompute them so
     repeated assembly (validation, version sweeps) is free *)
  let staged = Array.init 4 source in
  let source stage = staged.(max 0 (min stage 3)) in
  {
    Case.case_id = sf "%s-c%d-%s" system (k mod cases_per_system)
        (family_name family);
    system;
    feature;
    kind;
    bug_ids = [ id1; id2 ];
    n_stages = 4;
    source;
    ticket_meta = [ (1, id1, title1, disc1); (3, id2, title2, disc2) ];
    regression_stages = [ 2 ];
    latest_stage = 3;
    latest_has_unknown_bug = false;
    violating_old_semantics = violating;
    first_year;
    last_year;
  }

let system_name ~seed i =
  let r = Rng.make (case_seed seed (-(i + 1))) in
  sf "syn%03d-%s" i (Rng.pick r system_nouns)

let system ~seed i : Registry.provider =
  let name = system_name ~seed i in
  let cases =
    List.init cases_per_system (fun j ->
        let k = (i * cases_per_system) + j in
        case_with_knobs ~seed ~system:name ~sys_idx:i k (knobs_at ~seed k))
  in
  Registry.provider ~system:name cases

let case_at ~seed k : Case.t =
  let i = k / cases_per_system in
  let name = system_name ~seed i in
  case_with_knobs ~seed ~system:name ~sys_idx:i k (knobs_at ~seed k)

let systems_per_scale = 4

let cases_generated =
  Telemetry.Metrics.counter "corpus.synth.cases" ~doc:"synthetic cases generated"

let registry ?(seed = 42) ~scale () : Registry.t =
  Telemetry.Trace.with_span ~cat:"corpus"
    ~args:[ ("seed", string_of_int seed); ("scale", string_of_int scale) ]
    "corpus.synth"
    (fun () ->
      let n_systems = systems_per_scale * scale in
      let providers = List.init n_systems (fun i -> system ~seed i) in
      let n_cases = n_systems * cases_per_system in
      Telemetry.Metrics.bump ~by:n_cases cases_generated;
      Telemetry.Metrics.trace_counter ~cat:"corpus" cases_generated;
      Registry.make
        ~name:(sf "synth:seed=%d:scale=%d" seed scale)
        providers)

(* ------------------------------------------------------------------ *)
(* Fuzzing: check + minimize                                           *)
(* ------------------------------------------------------------------ *)

let validate_failure (c : Case.t) : string option =
  match Case.validate c with
  | Ok () -> None
  | Error e -> Some e
  | exception e -> Some (sf "crash: %s" (Printexc.to_string e))

let shrinks k =
  (if k.k_aux_tests > 0 then [ { k with k_aux_tests = k.k_aux_tests - 1 } ]
   else [])
  @ (if k.k_fixture_extra > 0 then
       [ { k with k_fixture_extra = k.k_fixture_extra - 1 } ]
     else [])
  @ if k.k_helper then [ { k with k_helper = false } ] else []

type repro = {
  rp_seed : int;
  rp_case : int;
  rp_knobs : knobs;  (** smallest knob setting that still fails *)
  rp_failure : string;
}

let minimize ?fails ~seed k : repro option =
  let fails = Option.value fails ~default:validate_failure in
  let i = k / cases_per_system in
  let name = system_name ~seed i in
  let check knobs = fails (case_with_knobs ~seed ~system:name ~sys_idx:i k knobs) in
  match check (knobs_at ~seed k) with
  | None -> None
  | Some msg0 ->
      (* greedy knob descent: keep the first shrink that still fails *)
      let rec go knobs msg =
        match
          List.find_map
            (fun k' ->
              match check k' with Some m -> Some (k', m) | None -> None)
            (shrinks knobs)
        with
        | Some (k', m) -> go k' m
        | None -> { rp_seed = seed; rp_case = k; rp_knobs = knobs; rp_failure = msg }
      in
      Some (go (knobs_at ~seed k) msg0)

let repro_command r =
  sf "lisa corpus synth --seed %d --case %d" r.rp_seed r.rp_case
