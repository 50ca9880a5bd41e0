(** Automatic fix proposal — the last mile of §4.

    The paper doesn't just report the two unknown bugs, it *proposes the
    fixes* ("we propose to add timestamp checks to other paths, and the
    solution has been accepted by HBase developers").  This module closes
    that loop mechanically for state-guard violations:

    1. take a violating trace (rule + method containing the target);
    2. de-normalize the rule condition back into the method's own
       vocabulary (class-canonical roots become the local/parameter of
       that class; scalar paths stay as written);
    3. synthesize the guard [if (!(condition)) { throw ...; }] and insert
       it immediately before the target statement, at the AST level;
    4. pretty-print the patched program, and *verify* the proposal: the
       rule must now hold (with the fixed path verifying, not just not
       violating) and the program's own test suite must stay green.

    The result carries the unified diff a maintainer would review. *)

open Minilang

type proposal = {
  fp_rule : string;  (** rule id *)
  fp_method : string;  (** qualified method that was patched *)
  fp_guard : string;  (** the inserted guard, printed *)
  fp_patched_source : string;
  fp_diff : string;  (** unified diff original -> patched *)
}

type verification = {
  fv_rule_clean : bool;  (** no violations remain, sanity still holds *)
  fv_tests_green : bool;
  fv_detail : string;
}

(* ------------------------------------------------------------------ *)
(* De-normalization: canonical roots -> method-local names             *)
(* ------------------------------------------------------------------ *)

(* find the local/param of [m] whose declared class is [cls_name] *)
let local_of_class (env : Semantics.Translate.env) (cls_name : string) :
    string option =
  List.find_map
    (fun (x, ty) ->
      match ty with
      | Ast.T_ref c when c = cls_name -> Some x
      | _ -> None)
    env.Semantics.Translate.var_types

(* render a canonical path in the method's vocabulary *)
let denormalize_path (env : Semantics.Translate.env) (cls : Ast.class_decl option)
    (path : string) : string option =
  match String.index_opt path '.' with
  | None -> (
      (* a root: a scalar parameter/local (same name), or an object root *)
      if List.mem_assoc path env.Semantics.Translate.var_types then Some path
      else
        match local_of_class env path with
        | Some x -> Some x
        | None -> (
            (* the enclosing class itself: [this] *)
            match cls with
            | Some c when c.Ast.c_name = path -> Some "this"
            | _ -> None))
  | Some i -> (
      let root = String.sub path 0 i in
      let rest = String.sub path (i + 1) (String.length path - i - 1) in
      match local_of_class env root with
      | Some x -> Some (x ^ "." ^ rest)
      | None -> (
          match cls with
          | Some c when c.Ast.c_name = root -> Some ("this." ^ rest)
          | _ ->
              (* fields of another class reachable via a typed field of the
                 enclosing class are out of scope for synthesis *)
              None))

let term_text env cls (t : Smt.Formula.term) : string option =
  match Smt.Formula.term_view t with
  | Smt.Formula.T_var p -> denormalize_path env cls p
  | Smt.Formula.T_int n -> Some (string_of_int n)
  | Smt.Formula.T_bool b -> Some (string_of_bool b)
  | Smt.Formula.T_str s -> Some (Printf.sprintf "%S" s)
  | Smt.Formula.T_null -> Some "null"

let rec condition_text env cls (f : Smt.Formula.t) : string option =
  match Smt.Formula.view f with
  | Smt.Formula.True -> Some "true"
  | Smt.Formula.False -> Some "false"
  | Smt.Formula.Atom a -> (
      match (term_text env cls a.Smt.Formula.lhs, term_text env cls a.Smt.Formula.rhs) with
      | Some l, Some r ->
          Some (Fmt.str "%s %s %s" l (Smt.Formula.rel_to_string a.Smt.Formula.rel) r)
      | _ -> None)
  | Smt.Formula.Not g ->
      Option.map (fun s -> "!(" ^ s ^ ")") (condition_text env cls g)
  | Smt.Formula.And fs ->
      let parts = List.map (condition_text env cls) fs in
      if List.for_all Option.is_some parts then
        Some ("(" ^ String.concat " && " (List.filter_map Fun.id parts) ^ ")")
      else None
  | Smt.Formula.Or fs ->
      let parts = List.map (condition_text env cls) fs in
      if List.for_all Option.is_some parts then
        Some ("(" ^ String.concat " || " (List.filter_map Fun.id parts) ^ ")")
      else None

(* ------------------------------------------------------------------ *)
(* AST insertion                                                       *)
(* ------------------------------------------------------------------ *)

let rec insert_before (b : Ast.block) (target_sid : int) (guard : Ast.stmt) :
    Ast.block =
  List.concat_map
    (fun (st : Ast.stmt) ->
      if st.Ast.sid = target_sid then [ guard; st ]
      else
        [
          (match st.Ast.s with
          | Ast.If (c, b1, b2) ->
              { st with Ast.s = Ast.If (c, insert_before b1 target_sid guard, insert_before b2 target_sid guard) }
          | Ast.While (c, body) ->
              { st with Ast.s = Ast.While (c, insert_before body target_sid guard) }
          | Ast.Try (body, x, h) ->
              { st with Ast.s = Ast.Try (insert_before body target_sid guard, x, insert_before h target_sid guard) }
          | Ast.Sync (o, body) ->
              { st with Ast.s = Ast.Sync (o, insert_before body target_sid guard) }
          | Ast.Decl _ | Ast.Assign _ | Ast.Return _ | Ast.Throw _ | Ast.Expr _
          | Ast.Assert _ | Ast.Break | Ast.Continue ->
              st);
        ])
    b

let patch_method (p : Ast.program) (qname : string) (target_sid : int)
    (guard : Ast.stmt) : Ast.program =
  let patch (cls : string option) (m : Ast.method_decl) =
    if Ast.qualified_name cls m = qname then
      { m with Ast.m_body = insert_before m.Ast.m_body target_sid guard }
    else m
  in
  {
    Ast.p_classes =
      List.map
        (fun c ->
          { c with Ast.c_methods = List.map (patch (Some c.Ast.c_name)) c.Ast.c_methods })
        p.Ast.p_classes;
    p_funcs = List.map (patch None) p.Ast.p_funcs;
  }

(* ------------------------------------------------------------------ *)
(* Proposal                                                            *)
(* ------------------------------------------------------------------ *)

(** Synthesize a guard patch for one violating target of a state-guard
    rule.  [None] when the condition cannot be expressed in the method's
    vocabulary (e.g. no local of the required class is in scope). *)
let propose (p : Ast.program) (rule : Semantics.Rule.t) ~(method_ : string) :
    proposal option =
  match rule.Semantics.Rule.body with
  | Semantics.Rule.Lock_discipline _ -> None
  | Semantics.Rule.State_guard { target; condition } -> (
      (* the target statement inside the violating method *)
      let targets =
        Semantics.Rulebook.resolve_targets p target
        |> List.filter (fun (qname, _) -> qname = method_)
      in
      match targets with
      | [] -> None
      | (_, target_stmt) :: _ -> (
          match Ast.enclosing_method p target_stmt.Ast.sid with
          | None -> None
          | Some (cls_name, m) -> (
              let cls =
                match cls_name with Some c -> Ast.find_class p c | None -> None
              in
              let env = Semantics.Translate.env_of_method p cls m in
              match condition_text env cls condition with
              | None -> None
              | Some cond -> (
                  let guard_src =
                    Fmt.str
                      "method synthesized() { if (!%s) { throw \"SemanticViolationException\"; } }"
                      (if String.length cond > 0 && cond.[0] = '(' then cond
                       else "(" ^ cond ^ ")")
                  in
                  match Minilang.Parser.program ~first_sid:1_000_000 guard_src with
                  | exception _ -> None
                  | wrapper -> (
                      match wrapper.Ast.p_funcs with
                      | [ { m_body = [ guard ]; _ } ] ->
                          let patched = patch_method p method_ target_stmt.Ast.sid guard in
                          let original_src = Pretty.program_to_string p in
                          let patched_src = Pretty.program_to_string patched in
                          Some
                            {
                              fp_rule = rule.Semantics.Rule.rule_id;
                              fp_method = method_;
                              fp_guard = Pretty.stmt_to_string guard;
                              fp_patched_source = patched_src;
                              fp_diff =
                                Diffing.Line_diff.to_unified ~old_label:"a/latest"
                                  ~new_label:"b/proposed"
                                  (Diffing.Line_diff.diff original_src patched_src);
                            }
                      | _ -> None)))))

(** Verify a proposal: re-enforce the rule on the patched program and run
    its whole test suite. *)
let verify (proposal : proposal) (rule : Semantics.Rule.t) : verification =
  match Minilang.Parser.program ~file:"proposed.mj" proposal.fp_patched_source with
  | exception Minilang.Parser.Error (m, _) ->
      { fv_rule_clean = false; fv_tests_green = false; fv_detail = "patched source does not parse: " ^ m }
  | patched ->
      let report = Engine.Checker.check_rule patched rule in
      let failures =
        List.filter_map
          (fun name ->
            match Interp.run_test patched name with
            | Interp.Passed -> None
            | Interp.Failed m | Interp.Errored m -> Some (name ^ ": " ^ m))
          (Interp.test_names patched)
      in
      {
        fv_rule_clean =
          report.Engine.Checker.rep_violations = [] && report.Engine.Checker.rep_sanity_ok;
        fv_tests_green = failures = [];
        fv_detail =
          Fmt.str "%s; tests: %s"
            (Engine.Checker.report_summary report)
            (if failures = [] then "green" else String.concat "; " failures);
      }

(** End-to-end for a §4 unknown-bug case: scan the latest release, propose
    a fix for every violating method, verify each. *)
type case_fixes = {
  cf_case : string;
  cf_proposals : (proposal * verification) list;
}

let fix_unknown_bug (case_id : string) : case_fixes =
  let c =
    match Corpus.Registry.find Corpus.Registry.builtin case_id with
    | Some c -> c
    | None -> invalid_arg (case_id ^ " missing")
  in
  let known_tickets =
    List.filter_map
      (fun (stage, _, _, _) ->
        if stage <= c.Corpus.Case.latest_stage then Corpus.Case.ticket_at c stage
        else None)
      c.Corpus.Case.ticket_meta
  in
  let book, _ = Pipeline.learn_all ~system:c.Corpus.Case.system known_tickets in
  let latest = Corpus.Case.program_at c c.Corpus.Case.latest_stage in
  let reports = Pipeline.enforce latest book in
  let proposals =
    List.concat_map
      (fun (r : Engine.Checker.rule_report) ->
        r.Engine.Checker.rep_violations
        |> List.map (fun (t : Engine.Checker.trace_verdict) -> t.Engine.Checker.tv_method)
        |> List.sort_uniq compare
        |> List.filter_map (fun method_ ->
               match propose latest r.Engine.Checker.rep_rule ~method_ with
               | Some prop -> Some (prop, verify prop r.Engine.Checker.rep_rule)
               | None -> None))
      reports
  in
  (* several rules of the book may teach the same semantic; a proposal is
     identified by what it changes, not which rule asked for it *)
  let rec dedup seen = function
    | [] -> []
    | ((p, _) as x) :: rest ->
        let key = (p.fp_method, p.fp_guard) in
        if List.mem key seen then dedup seen rest else x :: dedup (key :: seen) rest
  in
  { cf_case = case_id; cf_proposals = dedup [] proposals }

let print_case_fixes (cf : case_fixes) : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  pf "proposed fixes for %s:" cf.cf_case;
  List.iter
    (fun ((p : proposal), (v : verification)) ->
      pf "  rule %s, method %s:" p.fp_rule p.fp_method;
      pf "    inserted guard: %s"
        (String.concat " " (String.split_on_char '\n' p.fp_guard));
      pf "    verification: rule %s, tests %s"
        (if v.fv_rule_clean then "clean" else "STILL VIOLATED")
        (if v.fv_tests_green then "green" else "BROKEN"))
    cf.cf_proposals;
  Buffer.contents buf
