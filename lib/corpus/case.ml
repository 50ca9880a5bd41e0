(** Regression-case model for the incident corpus.

    A *case* is one clustered regression from the §2.1 study: an original
    bug, its fix, and at least one later regression that re-violated the
    same low-level semantic on a different path.  Each case carries the
    full source of its feature module at every stage of its history:

    - stage 0: the original buggy version;
    - stage 1: after the first fix (patch + regression test added);
    - stage 2: the system evolved — a new path regressed the semantic;
    - stage 3: after the regression fix;
    - stages 4/5 (three-bug cases only): a further regression and its fix —
      stage 4 is the "latest release" in which LISA finds the
      previously-unknown bug (§4 of the paper).

    Tickets are derived from adjacent stages, so their diffs are real
    diffs of the actual sources. *)

type kind = Guard | Lock

type t = {
  case_id : string;
  system : string;  (** "zookeeper" | "hbase" | "hdfs" | "cassandra" *)
  feature : string;  (** human name of the feature, e.g. "ephemeral nodes" *)
  kind : kind;
  bug_ids : string list;  (** ordered: original bug first *)
  n_stages : int;
  source : int -> string;  (** feature-module source at a stage *)
  ticket_meta : (int * string * string * string) list;
      (** (fix stage, ticket id, title, discussion): the patch that
          produced [stage] from [stage-1] *)
  regression_stages : int list;  (** stages that contain an unfixed regression *)
  latest_stage : int;
  latest_has_unknown_bug : bool;  (** the E6/E7 "new bug in latest release" cases *)
  violating_old_semantics : int;  (** bugs of this case violating old semantics *)
  first_year : int;
  last_year : int;
}

let program_at (c : t) (stage : int) : Minilang.Ast.program =
  Minilang.Parser.program ~file:(Fmt.str "%s@stage%d.mj" c.case_id stage) (c.source stage)

(** Ticket for the fix that landed at [stage] (diff of stage-1 → stage);
    its regression tests are the [test_] functions present at [stage] but
    not at [stage - 1]. *)
let ticket_at (c : t) (stage : int) : Oracle.Ticket.t option =
  match
    List.find_opt (fun (s, _, _, _) -> s = stage) c.ticket_meta
  with
  | None -> None
  | Some (_, ticket_id, title, discussion) ->
      Some
        (Oracle.Ticket.make ~ticket_id ~system:c.system ~title
           ~description:title
           ~discussion
           ~buggy_source:(c.source (stage - 1))
           ~patched_source:(c.source stage))

(** The [i]-th ticket of a case, oldest first; only that ticket is
    built. *)
let ticket (c : t) (i : int) : Oracle.Ticket.t option =
  if i < 0 then None
  else
    Option.bind (List.nth_opt c.ticket_meta i) (fun (s, _, _, _) ->
        ticket_at c s)

(** All tickets of a case, oldest first. *)
let tickets (c : t) : Oracle.Ticket.t list =
  List.filter_map (ticket c) (List.init (List.length c.ticket_meta) Fun.id)

(** The ticket for the original incident — what LISA learns from.  Only
    that ticket is built: its two stages are the only ones read. *)
let original_ticket (c : t) : Oracle.Ticket.t =
  match ticket c 0 with
  | Some ticket -> ticket
  | None -> invalid_arg (Fmt.str "case %s has no tickets" c.case_id)

let n_bugs (c : t) : int = List.length c.bug_ids

(** Sanity-check a case definition: all stages parse and typecheck, and
    every stage's test suite is green (bugs in the corpus are latent, like
    the real ones — they escaped the suite). *)
let validate (c : t) : (unit, string) result =
  let rec go stage =
    if stage >= c.n_stages then Ok ()
    else
      match program_at c stage with
      | exception Minilang.Parser.Error (m, loc) ->
          Error (Fmt.str "%s stage %d: parse error %s at %s" c.case_id stage m
                   (Minilang.Loc.to_string loc))
      | p -> (
          match Minilang.Typecheck.check_program p with
          | [] ->
              let failures =
                List.filter_map
                  (fun name ->
                    match Minilang.Interp.run_test p name with
                    | Minilang.Interp.Passed -> None
                    | Minilang.Interp.Failed m -> Some (name ^ ": " ^ m)
                    | Minilang.Interp.Errored m -> Some (name ^ ": " ^ m))
                  (Minilang.Interp.test_names p)
              in
              if failures = [] then go (stage + 1)
              else
                Error
                  (Fmt.str "%s stage %d: failing tests: %s" c.case_id stage
                     (String.concat "; " failures))
          | errs ->
              Error
                (Fmt.str "%s stage %d: type errors: %s" c.case_id stage
                   (Minilang.Typecheck.errors_to_string errs)))
  in
  go 0
