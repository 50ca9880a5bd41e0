(** Domain-based worker pool.  [jobs <= 1] is a plain serial map on the
    calling domain (bit-for-bit deterministic); [jobs > 1] spawns up to
    [jobs] domains draining a shared atomic index, with results returned
    in input order — so output is independent of the pool width whenever
    the mapped function is deterministic per item. *)

(** [max 1 (Domain.recommended_domain_count () - 1)] — leave one core to
    the scheduler. *)
val default_jobs : unit -> int

(** Per-slot results: every failed item keeps its own exception in its
    own slot (no error loss), every other item still computes.  The
    engine quarantines each failed slot. *)
val map_results :
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  ('b, exn) result array
