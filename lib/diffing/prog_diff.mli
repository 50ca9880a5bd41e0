(** Structural (AST-level) diff between two versions of a program.

    Reports which guards a patch added and which statements those guards
    protect — the signal the inference backend turns into contracts.
    Matching is on canonical printed statement text, so the diff is robust
    to location and statement-id changes. *)

type guard_kind =
  | Early_exit  (** guard body throws/returns/breaks: it rejects executions *)
  | Wrapper  (** guard wraps the protected logic in its body *)

type added_guard = {
  g_method : string;  (** qualified name of the enclosing method *)
  g_cond : Minilang.Ast.expr;  (** the guard condition in the new version *)
  g_kind : guard_kind;
  g_sid : int;  (** sid of the guard in the new program *)
  g_protected : Minilang.Ast.stmt list;  (** statements the guard protects *)
}

type method_change = {
  mc_qname : string;
  mc_added_guards : added_guard list;
}

type t = {
  added_methods : string list;
  removed_methods : string list;
  changed_methods : method_change list;
}

(** Compare two program versions. *)
val compare_programs : Minilang.Ast.program -> Minilang.Ast.program -> t

val all_added_guards : t -> added_guard list

val pp_guard : Format.formatter -> added_guard -> unit
