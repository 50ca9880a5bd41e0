(** Regression-case model for the incident corpus (§2.1 study population).

    A case is one clustered regression: an original bug, its fix, and at
    least one later regression re-violating the same low-level semantic on
    a different path.  A case's history is a sequence of *stages*:
    stage 0 the original buggy version, stage 1 after the first fix
    (patch + regression test), stage 2 the evolved/regressed version,
    stage 3 after the regression fix; three-bug cases continue to
    stages 4 (the "latest release" carrying the §4 unknown bug) and 5.
    Tickets are derived from adjacent stages, so diffs are real. *)

type kind = Guard | Lock

type t = {
  case_id : string;
  system : string;  (** "zookeeper" | "hbase" | "hdfs" | "cassandra" *)
  feature : string;
  kind : kind;
  bug_ids : string list;  (** ordered: original bug first *)
  n_stages : int;
  source : int -> string;  (** feature-module source at a stage *)
  ticket_meta : (int * string * string * string) list;
      (** (fix stage, ticket id, title, discussion) *)
  regression_stages : int list;  (** stages containing an unfixed regression *)
  latest_stage : int;
  latest_has_unknown_bug : bool;
  violating_old_semantics : int;  (** bugs violating old semantics (study) *)
  first_year : int;
  last_year : int;
}

val program_at : t -> int -> Minilang.Ast.program

(** Ticket for the fix landing at [stage] (diff of stage-1 → stage),
    carrying the [test_*] functions present at [stage] but not at
    [stage - 1] as its regression tests. *)
val ticket_at : t -> int -> Oracle.Ticket.t option

(** [ticket c i]: the [i]-th ticket of [c], oldest first (the fix of
    the [i]-th [ticket_meta] entry); [None] when [i] is out of range.
    Builds only that ticket, reading only its two stages. *)
val ticket : t -> int -> Oracle.Ticket.t option

(** All tickets, oldest first. *)
val tickets : t -> Oracle.Ticket.t list

(** The ticket for the original incident — what LISA learns from.
    Builds only that ticket, reading only its two stages. *)
val original_ticket : t -> Oracle.Ticket.t

val n_bugs : t -> int

(** All stages parse, typecheck, and have green test suites (corpus bugs
    are latent, like the real ones). *)
val validate : t -> (unit, string) result
