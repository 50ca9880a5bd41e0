(** Failure-ticket bundles — the unit of input to inference, matching the
    three inputs of the paper's Listing 1 prompt: failure description and
    developer discussion, the code patch (computed, not stored), and the
    source after the patch.  A ticket also holds both sources parsed, so
    everything downstream of {!make} (inference, cross-checking) reads one
    AST per source instead of parsing again. *)

type t = {
  ticket_id : string;  (** e.g. ["ZK-1208"] *)
  system : string;  (** subject system, e.g. ["zookeeper"] *)
  title : string;
  description : string;  (** failure report text *)
  discussion : string;  (** developer discussion summary; by convention its
                            first sentence states the high-level semantics *)
  buggy_source : string;  (** full source before the fix *)
  patched_source : string;  (** full source after the fix *)
  buggy_program : Minilang.Ast.program;
      (** [buggy_source] parsed, labelled [<ticket_id>-buggy.mj] *)
  patched_program : Minilang.Ast.program;
      (** [patched_source] parsed, labelled [<ticket_id>-patched.mj] *)
  regression_tests : string list;
      (** tests added with the fix: the patched program's [test_*]
          functions the buggy program lacks, in patched order *)
}

(** Parse both sources once and derive [regression_tests] from them.
    @raise Minilang.Parser.Error if either source is malformed. *)
val make :
  ticket_id:string ->
  system:string ->
  title:string ->
  description:string ->
  discussion:string ->
  buggy_source:string ->
  patched_source:string ->
  t

(** The unified diff of the fix, computed from the stored sources. *)
val diff : t -> string

val summary : t -> string
