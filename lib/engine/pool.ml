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

    A worker exception never kills the pool: the surviving workers
    finish the remaining items, and the failure stays in its slot.
    [map] is the historic raising wrapper (first error by input index,
    so deterministically the same one at any pool width). *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let map_results ~(jobs : int) (f : 'a -> 'b) (items : 'a array) :
    ('b, exn) result array =
  let n = Array.length items in
  let apply x = match f x with v -> Ok v | exception e -> Error e in
  if jobs <= 1 || n <= 1 then Array.map apply items
  else begin
    let results : ('b, exn) result option array = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (apply items.(i));
        worker ()
      end
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

let map ~(jobs : int) (f : 'a -> 'b) (items : 'a array) : 'b array =
  let results = map_results ~jobs f items in
  Array.map (function Ok v -> v | Error e -> raise e) results
