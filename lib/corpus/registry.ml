(** The incident corpus as a first-class value.

    A registry is a *value*, not a module: cases, systems, whole-system
    version assembly, and study metadata bundled into {!t}, assembled
    from per-system providers.  The hand-written 16-case / 34-bug §2.1
    study population is {!builtin}; builtin and synthetic registries
    share one code path: the registry-parametric accessors.

    Whole-system versions are assembled by concatenating each feature
    module at the stage that system version maps to; version [v] puts every
    case at stage [min v latest_stage], so version 0 is the original buggy
    release, version 2 is the all-regressed release, and the last version
    is the "latest" release (in [builtin], v5, in which the two unknown
    bugs E6/E7 are present). *)

type meta = {
  m_changes_per_day_gcp : int;
      (** Google-scale change rate quoted in the paper's introduction. *)
  m_avg_test_files : int;
      (** Average number of test files among the studied systems (§2.2). *)
  m_ephemeral_bug_histogram : (int * int) list;
      (** Per-year related-bug counts for the flagship recurring feature. *)
}

type provider = { p_system : string; p_cases : Case.t list }

type t = {
  name : string;  (** e.g. ["builtin"] or ["synth:seed=42:scale=10"] *)
  systems : string list;  (** provider order, duplicates collapsed *)
  cases : Case.t list;  (** provider order, concatenated *)
  max_version : int;
  scan_versions : int list;  (** versions whole-system scans sweep *)
  meta : meta;
}

let paper_meta : meta =
  {
    m_changes_per_day_gcp = 16_000;
    m_avg_test_files = 1_309;
    m_ephemeral_bug_histogram =
      [
        (2011, 6); (2012, 5); (2013, 4); (2014, 3); (2015, 4); (2016, 3);
        (2017, 3); (2018, 2); (2019, 3); (2020, 3); (2021, 2); (2022, 3);
        (2023, 2); (2024, 3);
      ];
  }

let provider ~system cases = { p_system = system; p_cases = cases }

let make ?max_version ?scan_versions ?(meta = paper_meta) ~name providers =
  let systems = List.map (fun p -> p.p_system) providers in
  let cases = List.concat_map (fun p -> p.p_cases) providers in
  let max_version =
    match max_version with
    | Some v -> v
    | None ->
        List.fold_left (fun m (c : Case.t) -> max m (c.Case.n_stages - 1)) 0 cases
  in
  let scan_versions =
    match scan_versions with
    | Some vs -> vs
    | None ->
        List.sort_uniq compare
          (List.filter (fun v -> v <= max_version) [ 1; 2; 3; max_version ])
  in
  { name; systems; cases; max_version; scan_versions; meta }

(* ------------------------------------------------------------------ *)
(* Registry-parametric accessors                                       *)
(* ------------------------------------------------------------------ *)

let cases_of (r : t) (system : string) : Case.t list =
  List.filter (fun (c : Case.t) -> c.Case.system = system) r.cases

let find (r : t) (case_id : string) : Case.t option =
  List.find_opt (fun (c : Case.t) -> c.Case.case_id = case_id) r.cases

let case_count (r : t) = List.length r.cases

let bug_count (r : t) = List.fold_left (fun n c -> n + Case.n_bugs c) 0 r.cases

let old_semantics_count (r : t) =
  List.fold_left
    (fun n (c : Case.t) -> n + c.Case.violating_old_semantics)
    0 r.cases

let old_share (r : t) : float =
  float_of_int (old_semantics_count r) /. float_of_int (bug_count r)

let stage_at_version (c : Case.t) (version : int) : int =
  min version c.Case.latest_stage

let source_of (r : t) (system : string) ~(version : int) : string =
  let cases = cases_of r system in
  String.concat "\n"
    (Fmt.str "// %s, assembled release v%d" system version
    :: List.map (fun c -> c.Case.source (stage_at_version c version)) cases)

let program_of (r : t) (system : string) ~(version : int) :
    Minilang.Ast.program =
  Minilang.Parser.program
    ~file:(Fmt.str "%s-v%d.mj" system version)
    (source_of r system ~version)

(** Human-readable commit log of a system's history. *)
let history_of (r : t) (system : string) : (int * string) list =
  List.init (r.max_version + 1) (fun v ->
      let changed =
        cases_of r system
        |> List.filter (fun c ->
               v > 0 && stage_at_version c v <> stage_at_version c (v - 1))
        |> List.map (fun (c : Case.t) ->
               let s = stage_at_version c v in
               match
                 List.find_opt (fun (fs, _, _, _) -> fs = s) c.Case.ticket_meta
               with
               | Some (_, id, title, _) -> Fmt.str "%s: %s" id title
               | None ->
                   Fmt.str "%s: evolve %s to stage %d" c.Case.case_id
                     c.Case.feature s)
      in
      let msg =
        if v = 0 then "initial release"
        else if changed = [] then "routine maintenance"
        else String.concat "; " changed
      in
      (v, msg))

let ephemeral_total (r : t) =
  List.fold_left (fun n (_, k) -> n + k) 0 r.meta.m_ephemeral_bug_histogram

(* ------------------------------------------------------------------ *)
(* The builtin registry: the hand-written §2.1 study population         *)
(* ------------------------------------------------------------------ *)

let builtin : t =
  make ~name:"builtin" ~max_version:5
    [
      provider ~system:"zookeeper" Zookeeper.cases;
      provider ~system:"hbase" Hbase.cases;
      provider ~system:"hdfs" Hdfs.cases;
      provider ~system:"cassandra" Cassandra.cases;
    ]
