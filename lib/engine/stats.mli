(** Engine run statistics: jobs run, cache hits/misses, incremental
    reuses, solver calls (and calls saved by the verdict cache), wall
    time overall and per job.

    Counts live once, in [Telemetry.Metrics]; a recorder adds each
    enforcement's registry deltas ({!record}), and {!snapshot}
    materialises them into the plain record below plus the full
    name-keyed list {!counters}. *)

type job_time = {
  jt_job_id : string;
  jt_rule_id : string;
  jt_wall_s : float;  (** dynamic-phase wall time of this job *)
}

(** An immutable snapshot of a recorder. *)
type t = {
  enforcements : int;  (** [enforce] calls served *)
  jobs_run : int;  (** dynamic phases actually executed *)
  report_hits : int;
  report_misses : int;
  incremental_reuses : int;
      (** jobs skipped wholesale by the diff-based incremental pre-pass *)
  smt_hits : int;
  smt_misses : int;
  intern_hits : int;  (** hash-cons table hits during our runs *)
  intern_misses : int;  (** fresh nodes interned during our runs *)
  intern_size : int;
      (** live interned nodes (terms + formulas + strings) at snapshot
          time; process-global and monotone *)
  solver_calls : int;
  fastpath_saved : int;
      (** full DPLL(T) searches avoided (sum of the fast-path rungs) *)
  wall_s : float;
  job_times : job_time list;  (** newest first, bounded by the ring *)
  retries : int;  (** failed jobs re-run after backoff *)
  degraded_jobs : int;  (** jobs whose report carries a degradation *)
  quarantined : string list;
      (** rule ids whose jobs exhausted their retries, newest first *)
  counters : (string * int) list;  (** see {!counters} *)
}

(** The engine's accumulation handle: registry deltas plus a bounded
    ring of per-job wall times. *)
type recorder

(** [job_times_cap] bounds the per-job wall-time ring (default 1024);
    older entries are overwritten. *)
val recorder : ?job_times_cap:int -> unit -> recorder

(** [record r ~wall before after] adds one enforcement: the difference
    of two {!Telemetry.Metrics.sample}s taken around it, and its wall
    time. *)
val record : recorder -> wall:float -> int array -> int array -> unit

val add_job_time : recorder -> job_time -> unit

(** Record a quarantined rule id (newest first in the snapshot). *)
val quarantine : recorder -> string -> unit

(** Zero the recorder: its totals, wall time, ring, quarantines. *)
val reset : recorder -> unit

val snapshot : recorder -> t

(** Every declared registry metric's total over the recorder's
    enforcements, as [(name, value)] in declaration order. *)
val counters : t -> (string * int) list

(** SMT verdict-cache hits: solver invocations that never happened. *)
val solver_calls_saved : t -> int

val to_string : t -> string

(** The [n] slowest jobs (default 5), one per line; bounded selection,
    same order as a stable descending sort. *)
val slowest_jobs : ?n:int -> t -> string
