(** The engine's job model.

    One job per rule of the rulebook being enforced; its id is the rule
    id, unique within a rulebook.

    Jobs carry a cost estimate used as the scheduling priority: the
    worker pool drains jobs most-expensive-first, which minimizes the
    makespan tail when the pool is wider than one domain (classic LPT
    scheduling).  Ties break on rule id, keeping the order — and with it
    the [jobs = 1] execution — fully deterministic. *)

type t = {
  rule_id : string;
  priority : int;  (** estimated cost; higher schedules earlier *)
  prepared : Checker.prepared;
}

(* Estimated dynamic-phase cost.  State guards run [tests × paths]
   concolic explorations; lock rules sweep the whole suite plus a
   whole-program static scan, which in practice dominates any single
   guard, hence the large constant. *)
let estimate_cost (pr : Checker.prepared) : int =
  let n_tests = List.length pr.Checker.prep_tests in
  match pr.Checker.prep_kind with
  | Checker.Prep_guard _ ->
      n_tests * (1 + List.length (Checker.prepared_static_paths pr))
  | Checker.Prep_lock _ -> 10_000 + n_tests

let make (pr : Checker.prepared) : t =
  {
    rule_id = pr.Checker.prep_rule.Semantics.Rule.rule_id;
    priority = estimate_cost pr;
    prepared = pr;
  }

(* [a] schedules before [b]? — higher priority first, rule id tie-break *)
let before (a : t) (b : t) : bool =
  a.priority > b.priority || (a.priority = b.priority && a.rule_id < b.rule_id)
(** {1 Priority queue} — array-backed binary max-heap. *)

module Heap = struct
  type job = t

  type t = { mutable items : job array; mutable size : int }

  let create () = { items = [||]; size = 0 }

  let length h = h.size

  let is_empty h = h.size = 0

  let swap h i j =
    let tmp = h.items.(i) in
    h.items.(i) <- h.items.(j);
    h.items.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before h.items.(i) h.items.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < h.size && before h.items.(l) h.items.(!best) then best := l;
    if r < h.size && before h.items.(r) h.items.(!best) then best := r;
    if !best <> i then begin
      swap h i !best;
      sift_down h !best
    end

  let push h job =
    if h.size = Array.length h.items then begin
      let grown = Array.make (max 8 (2 * h.size)) job in
      Array.blit h.items 0 grown 0 h.size;
      h.items <- grown
    end;
    h.items.(h.size) <- job;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.items.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.items.(0) <- h.items.(h.size);
        sift_down h 0
      end;
      Some top
    end

  let of_list jobs =
    let h = create () in
    List.iter (push h) jobs;
    h
end

(** Jobs in scheduling order (highest priority first, deterministic). *)
let schedule (jobs : t list) : t list =
  let h = Heap.of_list jobs in
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some j -> drain (j :: acc)
  in
  drain []
