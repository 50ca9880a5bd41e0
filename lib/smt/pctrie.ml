(** Path-condition trie: group trace checks by shared pc prefixes.

    Concolic hits from one execution tree overwhelmingly share path-
    condition prefixes (they diverge only at the last few branches), and
    PR 4's hash-consing makes those prefixes *physically* shared: a pc
    snapshot is a list of interned formulas, outermost decision first.
    This trie keys children by {!Formula.id}, so insertion is O(1) per
    pc element and two hits share a node exactly when they share a
    prefix of interned facts.

    The checker walks the trie depth-first, pushing each edge's formula
    onto a {!Solver.context} on entry and popping on exit — every shared
    prefix is asserted exactly once, and each leaf solves only its own
    suffix plus the complement.  Child order is insertion order and
    leaves at a node precede its children, so the walk is deterministic;
    payloads carry the caller's original index so results can be
    re-emitted in input order regardless of walk order. *)

type 'a node = {
  nd_form : Formula.t option;  (* [None] only at the root *)
  nd_index : (int, 'a node) Hashtbl.t;  (* formula id -> child *)
  mutable nd_children : 'a node list;  (* reverse insertion order *)
  mutable nd_leaves : 'a list;  (* reverse insertion order *)
  mutable nd_passes : int;  (* pcs routed through this node *)
}

type 'a t = { root : 'a node }

(* Process-wide totals across all tries *)
let nodes_ctr =
  Telemetry.Metrics.counter "smt.trie.nodes" ~doc:"path-condition trie nodes built"

let shared_ctr =
  Telemetry.Metrics.counter "smt.trie.shared"
    ~doc:"trie nodes shared by >= 2 path conditions"

let fresh_node form =
  {
    nd_form = form;
    nd_index = Hashtbl.create 4;
    nd_children = [];
    nd_leaves = [];
    nd_passes = 0;
  }

let create () : 'a t = { root = fresh_node None }

(** [add t ~pc payload] routes [payload] to the node reached by the pc
    snapshot (outermost decision first). *)
let add (t : 'a t) ~(pc : Formula.t list) (payload : 'a) : unit =
  let rec go node = function
    | [] -> node.nd_leaves <- payload :: node.nd_leaves
    | f :: rest ->
        let child =
          match Hashtbl.find_opt node.nd_index (Formula.id f) with
          | Some c -> c
          | None ->
              let c = fresh_node (Some f) in
              Hashtbl.replace node.nd_index (Formula.id f) c;
              node.nd_children <- c :: node.nd_children;
              Telemetry.Metrics.bump nodes_ctr;
              c
        in
        child.nd_passes <- child.nd_passes + 1;
        if child.nd_passes = 2 then Telemetry.Metrics.bump shared_ctr;
        go child rest
  in
  go t.root pc

(** Pruned depth-first walk: [enter f] returns whether to descend.  When
    it answers [false] the node's entire subtree is subsumed — every
    payload below it (own leaves first, then descendants, in the same
    deterministic insertion order an unpruned walk would use) goes to
    [pruned] without any further [enter]/[leave], and only the pruned
    node's own [leave f] still runs so the caller can pop what it
    pushed. *)
let walk_pruned (t : 'a t) ~(enter : Formula.t -> bool)
    ~(leave : Formula.t -> unit) ~(leaf : 'a -> unit) ~(pruned : 'a -> unit) :
    unit =
  let rec drop node =
    List.iter pruned (List.rev node.nd_leaves);
    List.iter drop (List.rev node.nd_children)
  in
  let rec visit node =
    let descend = match node.nd_form with Some f -> enter f | None -> true in
    if descend then begin
      List.iter leaf (List.rev node.nd_leaves);
      List.iter visit (List.rev node.nd_children)
    end
    else drop node;
    match node.nd_form with Some f -> leave f | None -> ()
  in
  visit t.root
