(** Domain-based worker pool (OCaml 5, no external dependencies).

    [map_results ~jobs f items] applies [f] to every item and returns a
    per-slot [('b, exn) result] array in input order — {e every} failed
    job keeps its own exception in its own slot, so a caller can report
    (and retry) each failure instead of losing all but the first.  With
    [jobs <= 1] it runs serially on the calling domain — bit-for-bit
    the serial semantics, which is what keeps tier-1 tests stable.
    With [jobs > 1] it spawns up to [jobs] domains that drain a shared
    atomic index; because results land in their input slot, the output
    is identical for every pool width as long as [f] is deterministic
    per item (the checker's dynamic phase is: it shares no mutable
    state apart from the mutex-protected caches, whose hits return the
    same verdicts the misses compute).

    Workers carry a domain-local cache lifecycle: [init] runs on each
    worker domain before it claims its first item (warming
    [Domain.DLS] state — the SMT memo front cache), and [finish] runs
    after its last item, before the domain is joined (draining state
    that must not be stranded — the solver's pending learned clauses).
    The serial path runs the same hooks on the calling domain, so
    [jobs <= 1] stays bit-for-bit identical while exercising the same
    lifecycle.

    A worker exception never kills the pool: the surviving workers
    finish the remaining items, and the failure stays in its slot.
    [map] is the historic raising wrapper (first error by input index,
    so deterministically the same one at any pool width). *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let noop () = ()

let map_results ?(init = noop) ?(finish = noop) ~(jobs : int) (f : 'a -> 'b)
    (items : 'a array) : ('b, exn) result array =
  let n = Array.length items in
  let apply x = match f x with v -> Ok v | exception e -> Error e in
  if jobs <= 1 || n <= 1 then begin
    init ();
    let results = Array.map apply items in
    finish ();
    results
  end
  else begin
    let results : ('b, exn) result option array = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      init ();
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (apply items.(i));
          loop ()
        end
      in
      loop ();
      finish ()
    in
    let domains =
      List.init (min jobs n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join domains;
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every index below [n] was claimed *))
      results
  end

(** Indexed failures of a [map_results] run, in slot order. *)
let failures (results : ('b, exn) result array) : (int * exn) list =
  let acc = ref [] in
  Array.iteri
    (fun i r -> match r with Error e -> acc := (i, e) :: !acc | Ok _ -> ())
    results;
  List.rev !acc

let map ?init ?finish ~(jobs : int) (f : 'a -> 'b) (items : 'a array) :
    'b array =
  let results = map_results ?init ?finish ~jobs f items in
  Array.map (function Ok v -> v | Error e -> raise e) results
