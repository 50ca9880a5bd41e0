(** Known answers, derived from the generator's case metadata only
    ([regression_stages], [ticket_meta], [latest_stage]) and never from a
    run of the code under test.

    Rule ids carry their ticket as prefix ([SYN-1000.g12.gen] was learned
    from [SYN-1000]), so a verdict is checked as the set of tickets whose
    rules fired. *)

module Case = Corpus.Case
module Registry = Corpus.Registry

(** Version [v] holds an unfixed regression of case [c]. *)
let regressed (c : Case.t) (v : int) : bool =
  List.mem (Registry.stage_at_version c v) c.Case.regression_stages

(** The ticket of the original incident: the one every rulebook of the
    case is learned from. *)
let planted_ticket (c : Case.t) : string =
  match c.Case.ticket_meta with
  | (_, id, _, _) :: _ -> id
  | [] -> invalid_arg ("case without tickets: " ^ c.Case.case_id)

let ticket_of_rule (rule_id : string) : string =
  match String.index_opt rule_id '.' with
  | Some i -> String.sub rule_id 0 i
  | None -> rule_id

(** The tickets whose rules fired, sorted. *)
let fired (rule_ids : string list) : string list =
  List.sort_uniq compare (List.map ticket_of_rule rule_ids)

(** System-scoped enforcement (scan rows, serve [system] requests): the
    planted ticket of every regressed case fires, and nothing else. *)
let expect_system (reg : Registry.t) (system : string) (v : int) : string list =
  Registry.cases_of reg system
  |> List.filter_map (fun c -> if regressed c v then Some (planted_ticket c) else None)
  |> List.sort_uniq compare

(** Case-scoped enforcement (serve [case] requests, ticket 0): the
    ticket fires iff the case's stage at [v] is a regression stage. *)
let expect_case (c : Case.t) (v : int) : string list =
  if regressed c v then [ planted_ticket c ] else []

(** CI gate: exactly the regression stages are blocked. *)
let expect_blocked (c : Case.t) : int list = c.Case.regression_stages
