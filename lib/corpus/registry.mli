(** The incident corpus as a first-class value: a registry is cases +
    systems + whole-system version assembly + study metadata, assembled
    from per-system providers.  The hand-written 16-case / 34-bug corpus
    is {!builtin}. *)

type meta = {
  m_changes_per_day_gcp : int;
  m_avg_test_files : int;
  m_ephemeral_bug_histogram : (int * int) list;
}

type provider = { p_system : string; p_cases : Case.t list }

type t = {
  name : string;
  systems : string list;
  cases : Case.t list;
  max_version : int;
  scan_versions : int list;
  meta : meta;
}

(** The survey constants the paper quotes (used by [builtin]). *)
val paper_meta : meta

val provider : system:string -> Case.t list -> provider

(** Assemble a registry from per-system providers.  [max_version]
    defaults to the largest [n_stages - 1] over all cases;
    [scan_versions] defaults to [1; 2; 3; max_version] (deduplicated);
    [meta] defaults to {!paper_meta}. *)
val make :
  ?max_version:int ->
  ?scan_versions:int list ->
  ?meta:meta ->
  name:string ->
  provider list ->
  t

(** {1 Registry-parametric accessors} *)

val cases_of : t -> string -> Case.t list

val find : t -> string -> Case.t option

val case_count : t -> int

val bug_count : t -> int

val old_semantics_count : t -> int

(** Share of bugs violating semantics that predate the first stable
    release (the paper quotes 68% for the builtin population). *)
val old_share : t -> float

(** Version [v] puts a case at stage [min v latest_stage]. *)
val stage_at_version : Case.t -> int -> int

val source_of : t -> string -> version:int -> string

val program_of : t -> string -> version:int -> Minilang.Ast.program

(** Human-readable commit log of a system's history. *)
val history_of : t -> string -> (int * string) list

val ephemeral_total : t -> int

(** {1 The builtin registry} — the hand-written §2.1 study population:
    16 regression cases, 34 bugs, four subject systems, scan versions
    [1;2;3;5] with the two §4 unknown bugs present at v5. *)

val builtin : t
