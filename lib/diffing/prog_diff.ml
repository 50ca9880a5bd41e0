(** Structural (AST-level) diff between two versions of a MiniJava program.

    The inference engine in [lib/oracle] does not work on raw text: it needs
    to know *which guards a patch added* and *which statements those guards
    protect*.  This module compares two parsed programs and reports, per
    modified method:

    - added/removed [if] guards (conditions present in one version only);
    - added/removed plain statements;
    - for every added guard, the statements that the guard now protects
      (either the guard's own body, or — for early-exit guards — the
      statements that follow it in the enclosing block).

    Matching is done on the canonical printed text of statements
    ({!Minilang.Pretty}), which makes the diff robust to location and sid
    changes between versions. *)

open Minilang

type guard_kind =
  | Early_exit  (** guard body throws or returns: it *rejects* executions *)
  | Wrapper  (** guard wraps the protected logic in its own body *)

type added_guard = {
  g_method : string;  (** qualified name of the enclosing method *)
  g_cond : Ast.expr;  (** the guard condition as written in the new version *)
  g_kind : guard_kind;
  g_sid : int;  (** sid of the guard in the *new* program *)
  g_protected : Ast.stmt list;
      (** statements the guard protects, in the new program *)
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

let method_map (p : Ast.program) : (string * Ast.method_decl) list =
  List.map (fun (cls, m) -> (Ast.qualified_name cls m, m)) (Ast.methods_of_program p)

let body_text (m : Ast.method_decl) : string = Pretty.method_to_string m


(* Does a block unconditionally exit (return/throw) on every path? *)
let rec block_exits (b : Ast.block) : bool = List.exists stmt_exits b

and stmt_exits (st : Ast.stmt) : bool =
  match st.Ast.s with
  | Ast.Return _ | Ast.Throw _ -> true
  (* break/continue leave the current straight-line path, so a guard whose
     body ends in one protects the statements that follow it *)
  | Ast.Break | Ast.Continue -> true
  | Ast.If (_, b1, b2) -> block_exits b1 && b2 <> [] && block_exits b2
  | Ast.Sync (_, b) -> block_exits b
  | Ast.Try _ | Ast.While _ | Ast.Decl _ | Ast.Assign _ | Ast.Expr _ | Ast.Assert _ ->
      false

(* Interesting protected statements: calls and writes — the things a
   low-level semantic typically constrains. *)
let is_protectable (st : Ast.stmt) : bool =
  match st.Ast.s with
  | Ast.Expr _ | Ast.Assign _ | Ast.Return (Some _) | Ast.Decl (_, _, Some _) -> true
  | Ast.Return None | Ast.Decl (_, _, None) | Ast.If _ | Ast.While _ | Ast.Throw _
  | Ast.Try _ | Ast.Sync _ | Ast.Assert _ | Ast.Break | Ast.Continue ->
      false

(* Find guards in [m_new] whose condition text does not appear as a guard
   in [m_old].  For each, compute the protected statements. *)
let added_guards_of ~qname (m_old : Ast.method_decl) (m_new : Ast.method_decl) :
    added_guard list =
  let guard_conds (m : Ast.method_decl) : string list =
    List.filter_map
      (fun (st : Ast.stmt) ->
        match st.Ast.s with
        | Ast.If (c, _, _) -> Some (Pretty.expr_to_string c)
        | _ -> None)
      (Ast.stmts_of_method m)
  in
  let old_conds = guard_conds m_old in
  let result = ref [] in
  (* walk blocks of the new method so we can see what follows each guard *)
  let rec walk_block (b : Ast.block) : unit =
    match b with
    | [] -> ()
    | st :: rest ->
        (match st.Ast.s with
        | Ast.If (c, b1, b2) ->
            let cond_text = Pretty.expr_to_string c in
            (if not (List.mem cond_text old_conds) then
               let kind, protected_stmts =
                 if block_exits b1 && b2 = [] then
                   (* early-exit guard: it protects what follows *)
                   (Early_exit, List.filter is_protectable rest)
                 else (Wrapper, List.filter is_protectable b1)
               in
               result :=
                 {
                   g_method = qname;
                   g_cond = c;
                   g_kind = kind;
                   g_sid = st.Ast.sid;
                   g_protected = protected_stmts;
                 }
                 :: !result);
            walk_block b1;
            walk_block b2
        | Ast.While (_, body) -> walk_block body
        | Ast.Try (body, _, h) ->
            walk_block body;
            walk_block h
        | Ast.Sync (_, body) -> walk_block body
        | Ast.Decl _ | Ast.Assign _ | Ast.Return _ | Ast.Throw _ | Ast.Expr _
        | Ast.Assert _ | Ast.Break | Ast.Continue ->
            ());
        walk_block rest
  in
  walk_block m_new.Ast.m_body;
  List.rev !result

(* Guard conditions *extended* in place: same guard statement position but
   the condition text changed (e.g. [s == null] became
   [s == null || s.closing]).  We detect them as a removed+added guard pair
   where the old condition is a syntactic sub-expression of the new one. *)
let extended_guards_of ~qname (m_old : Ast.method_decl) (m_new : Ast.method_decl) :
    added_guard list =
  let guards (m : Ast.method_decl) =
    List.filter_map
      (fun (st : Ast.stmt) ->
        match st.Ast.s with
        | Ast.If (c, b1, b2) -> Some (st, c, b1, b2)
        | _ -> None)
      (Ast.stmts_of_method m)
  in
  let old_guard_texts = List.map (fun (_, c, _, _) -> Pretty.expr_to_string c) (guards m_old) in
  List.filter_map
    (fun (st, c, b1, b2) ->
      let text = Pretty.expr_to_string c in
      if List.mem text old_guard_texts then None
      else
        (* is some old guard a strict sub-expression of this one? *)
        let is_extension =
          List.exists
            (fun old_text ->
              (not (String.equal old_text text))
              && Textutil.contains_sub text old_text)
            old_guard_texts
        in
        if not is_extension then None
        else
          let kind = if block_exits b1 && b2 = [] then Early_exit else Wrapper in
          Some
            {
              g_method = qname;
              g_cond = c;
              g_kind = kind;
              g_sid = st.Ast.sid;
              g_protected = [];
            })
    (guards m_new)

(** Compare two program versions. *)
let compare_programs (old_p : Ast.program) (new_p : Ast.program) : t =
  let old_methods = method_map old_p and new_methods = method_map new_p in
  let old_names = List.map fst old_methods and new_names = List.map fst new_methods in
  let added_methods = List.filter (fun n -> not (List.mem n old_names)) new_names in
  let removed_methods = List.filter (fun n -> not (List.mem n new_names)) old_names in
  let changed_methods =
    List.filter_map
      (fun (qname, m_new) ->
        match List.assoc_opt qname old_methods with
        | None -> None
        | Some m_old ->
            if String.equal (body_text m_old) (body_text m_new) then None
            else
              Some
                {
                  mc_qname = qname;
                  mc_added_guards =
                    (* [added_guards_of] already covers extended guards (their
                       new text is absent from the old version); keep
                       [extended_guards_of] results only for sids it missed. *)
                    (let primary = added_guards_of ~qname m_old m_new in
                     let seen = List.map (fun g -> g.g_sid) primary in
                     primary
                     @ List.filter
                         (fun g -> not (List.mem g.g_sid seen))
                         (extended_guards_of ~qname m_old m_new));
                })
      new_methods
  in
  { added_methods; removed_methods; changed_methods }

let all_added_guards (t : t) : added_guard list =
  List.concat_map (fun mc -> mc.mc_added_guards) t.changed_methods

let pp_guard ppf (g : added_guard) =
  Fmt.pf ppf "%s: if (%s) [%s] protecting %d stmt(s)" g.g_method
    (Pretty.expr_to_string g.g_cond)
    (match g.g_kind with Early_exit -> "early-exit" | Wrapper -> "wrapper")
    (List.length g.g_protected)
