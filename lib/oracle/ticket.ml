(** Failure-ticket bundles.

    A ticket is the unit of input to the inference pipeline, matching the
    three inputs of the paper's prompt (Listing 1): failure description
    and developer discussion, the code patch (diff), and the source code
    after the patch has been applied.  We additionally keep the buggy
    source itself (the diff is computed, not stored), both sources parsed
    once, and the names of the regression tests the developers added with
    the fix. *)

type t = {
  ticket_id : string;  (** e.g. ["ZK-1208"] *)
  system : string;  (** subject system, e.g. ["zookeeper"] *)
  title : string;
  description : string;  (** failure report text *)
  discussion : string;  (** developer discussion summary *)
  buggy_source : string;  (** full MiniJava source before the fix *)
  patched_source : string;  (** full MiniJava source after the fix *)
  buggy_program : Minilang.Ast.program;  (** [buggy_source], parsed *)
  patched_program : Minilang.Ast.program;  (** [patched_source], parsed *)
  regression_tests : string list;  (** tests added with the fix *)
}

let make ~ticket_id ~system ~title ~description ~discussion ~buggy_source
    ~patched_source =
  let buggy_program =
    Minilang.Parser.program ~file:(ticket_id ^ "-buggy.mj") buggy_source
  in
  let patched_program =
    Minilang.Parser.program ~file:(ticket_id ^ "-patched.mj") patched_source
  in
  let before = Minilang.Interp.test_names buggy_program in
  {
    ticket_id;
    system;
    title;
    description;
    discussion;
    buggy_source;
    patched_source;
    buggy_program;
    patched_program;
    regression_tests =
      List.filter
        (fun t -> not (List.mem t before))
        (Minilang.Interp.test_names patched_program);
  }

(** The unified diff of the fix, computed from the stored sources. *)
let diff (t : t) : string =
  Diffing.Line_diff.to_unified
    ~old_label:(t.ticket_id ^ "/before")
    ~new_label:(t.ticket_id ^ "/after")
    (Diffing.Line_diff.diff t.buggy_source t.patched_source)

let summary (t : t) : string =
  Fmt.str "[%s] %s (%s)" t.ticket_id t.title t.system
