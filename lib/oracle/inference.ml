(** Deterministic inference backend — the LLM substitute.

    Interface-compatible with the paper's two-phase LLM inference
    (Listing 1): input is a {!Ticket.t} bundle, output is the JSON-shaped
    {!inferred} record with high-level semantics, low-level semantics
    (description + condition statement + target statement) and reasoning.

    Internally, instead of a language model, the backend runs the same
    analysis an experienced developer performs (and that the paper prompts
    the LLM to walk through):

    1. *root cause*: the structural diff of the fix
       ({!Diffing.Prog_diff.compare_programs}) — which guards the patch
       added and what they protect, and which blocking operations the
       patch moved out of lock scopes;
    2. *high-level semantics*: the first sentence of the developer
       discussion (tickets state the violated property up front);
    3. *low-level semantics*: for each added guard, the contract
       [<guard condition> protected statement <>], translated into a
       checker formula via {!Semantics.Translate} (observer inlining +
       class-canonical naming = the paper's normalization);
    4. *lock rules*: blocking-under-lock violations present in the buggy
       version and absent after the patch become lock-discipline rules.

    A configurable {!noise} model reintroduces the two LLM failure modes
    the paper's §5 worries about — non-determinism and hallucination — so
    the open-question experiment (E9) can quantify how the downstream
    cross-checking catches them. *)

open Minilang

type inferred = {
  inf_ticket : string;
  inf_high_level : string;
  inf_rules : Semantics.Rule.t list;
  inf_reasoning : string list;
}

(** LLM-style failure injection.  [epsilon] is the per-rule corruption
    probability; the generator is a deterministic LCG seeded from [seed]
    and the ticket id, so experiments are reproducible. *)
type noise = { epsilon : float; seed : int }

let no_noise = { epsilon = 0.0; seed = 0 }

(* deterministic LCG; numerical recipes constants *)
let lcg_next s = (s * 1664525) + 1013904223

let hash_string (s : string) : int =
  let h = ref 5381 in
  String.iter (fun c -> h := (!h * 33) + Char.code c) s;
  abs !h

(* draw a float in [0,1) and the next state *)
let draw (s : int) : float * int =
  let s' = lcg_next s in
  (float_of_int (abs s' mod 1_000_000) /. 1_000_000.0, s')

(* ------------------------------------------------------------------ *)
(* Rule extraction                                                     *)
(* ------------------------------------------------------------------ *)

let first_sentence (s : string) : string =
  match String.index_opt s '.' with
  | Some i -> String.sub s 0 (i + 1)
  | None -> s

let split_qname (qname : string) : string option * string =
  match String.index_opt qname '.' with
  | Some i ->
      (Some (String.sub qname 0 i), String.sub qname (i + 1) (String.length qname - 1 - i))
  | None -> (None, qname)

let find_method (p : Ast.program) (qname : string) :
    (Ast.class_decl option * Ast.method_decl) option =
  let cls_name, m_name = split_qname qname in
  match cls_name with
  | Some c -> (
      match Ast.find_class p c with
      | Some cls -> (
          match Ast.find_method_in_class cls m_name with
          | Some m -> Some (Some cls, m)
          | None -> None)
      | None -> None)
  | None -> (
      match Ast.find_func p m_name with Some m -> Some (None, m) | None -> None)

(* choose the target statement a guard protects *)
let target_of_guard (g : Diffing.Prog_diff.added_guard) : Semantics.Rule.target_spec option =
  let callees st =
    List.filter (fun c -> not (Builtins.is_builtin c)) (Ast.callees_of_stmt st)
  in
  let rec pick = function
    | [] -> None
    | st :: rest -> (
        match callees st with
        | callee :: _ ->
            Some
              (Semantics.Rule.Call_to
                 { callee; in_method = Some g.Diffing.Prog_diff.g_method })
        | [] -> (
            (* builtin call (mapPut, ...) is still a valid anchor *)
            match Ast.callees_of_stmt st with
            | callee :: _ ->
                Some
                  (Semantics.Rule.Call_to
                     { callee; in_method = Some g.Diffing.Prog_diff.g_method })
            | [] -> pick rest))
  in
  match pick g.Diffing.Prog_diff.g_protected with
  | Some t -> Some t
  | None -> (
      match g.Diffing.Prog_diff.g_protected with
      | st :: _ -> Some (Semantics.Rule.Stmt_text (Pretty.stmt_head_to_string st))
      | [] -> None)

let state_guard_rules ~(origin : string) ~(buggy : Ast.program)
    ~(patched : Ast.program) (high_level : string) :
    Semantics.Rule.t list * string list =
  let d = Diffing.Prog_diff.compare_programs buggy patched in
  let guards = Diffing.Prog_diff.all_added_guards d in
  let reasoning = ref [] in
  let rules =
    List.filter_map
      (fun (g : Diffing.Prog_diff.added_guard) ->
        match find_method patched g.Diffing.Prog_diff.g_method with
        | None -> None
        | Some (cls, m) -> (
            let env = Semantics.Translate.env_of_method patched cls m in
            let early = g.Diffing.Prog_diff.g_kind = Diffing.Prog_diff.Early_exit in
            match
              Semantics.Translate.guard_condition env ~early_exit:early
                g.Diffing.Prog_diff.g_cond
            with
            | None -> None
            | Some condition -> (
                match target_of_guard g with
                | None -> None
                | Some target ->
                    let target_desc = Semantics.Rule.target_spec_to_string target in
                    reasoning :=
                      Fmt.str
                        "the patch added guard `if (%s)` (%s) in %s; the protected \
                         statement %s must only execute when %s holds"
                        (Pretty.expr_to_string g.Diffing.Prog_diff.g_cond)
                        (if early then "early-exit" else "wrapper")
                        g.Diffing.Prog_diff.g_method target_desc
                        (Smt.Formula.to_string condition)
                      :: !reasoning;
                    Some
                      (Semantics.Rule.make
                         ~rule_id:(Fmt.str "%s.g%d" origin g.Diffing.Prog_diff.g_sid)
                         ~description:
                           (Fmt.str "no execution may reach [%s] unless %s"
                              target_desc
                              (Smt.Formula.to_string condition))
                         ~high_level ~origin
                         (Semantics.Rule.State_guard { target; condition })))))
      guards
  in
  (rules, List.rev !reasoning)

let lock_rules ~(origin : string) ~(buggy : Ast.program) ~(patched : Ast.program)
    (high_level : string) : Semantics.Rule.t list * string list =
  let key (v : Analysis.Lockscope.violation) =
    (v.Analysis.Lockscope.v_method, v.Analysis.Lockscope.v_op)
  in
  let before = List.map key (Analysis.Lockscope.analyze buggy) in
  let after = List.map key (Analysis.Lockscope.analyze patched) in
  let fixed = List.filter (fun k -> not (List.mem k after)) before in
  let fixed = List.sort_uniq compare fixed in
  let rules =
    List.mapi
      (fun i (meth, op) ->
        Semantics.Rule.make
          ~rule_id:(Fmt.str "%s.l%d" origin i)
          ~description:
            (Fmt.str "method %s must not perform blocking operation %s while holding a lock"
               meth op)
          ~high_level ~origin
          (Semantics.Rule.Lock_discipline { scope = Semantics.Rule.Lock_specific meth }))
      fixed
  in
  let reasoning =
    List.map
      (fun (meth, op) ->
        Fmt.str
          "the patch removed blocking operation %s from a synchronized region of %s; \
           the invariant is a lock discipline, not a state predicate"
          op meth)
      fixed
  in
  (rules, reasoning)

(* ------------------------------------------------------------------ *)
(* Noise injection                                                     *)
(* ------------------------------------------------------------------ *)

(* corrupt one rule the way a hallucinating LLM would *)
let corrupt_rule (kind : int) (r : Semantics.Rule.t) : Semantics.Rule.t =
  match r.Semantics.Rule.body with
  | Semantics.Rule.State_guard { target; condition } -> (
      match kind mod 3 with
      | 0 ->
          (* drop a conjunct: plausible-sounding but weaker rule *)
          let condition' =
            match Smt.Formula.view condition with
            | Smt.Formula.And (_ :: rest) when rest <> [] -> Smt.Formula.conj rest
            | _ -> condition
          in
          {
            r with
            Semantics.Rule.rule_id = r.Semantics.Rule.rule_id ^ ".weak";
            body = Semantics.Rule.State_guard { target; condition = condition' };
          }
      | 1 ->
          (* flip the polarity: confidently wrong *)
          {
            r with
            Semantics.Rule.rule_id = r.Semantics.Rule.rule_id ^ ".flip";
            body =
              Semantics.Rule.State_guard
                { target; condition = Smt.Formula.nnf (Smt.Formula.negate condition) };
          }
      | _ ->
          (* retarget to a nonexistent callee: the rule silently checks nothing *)
          {
            r with
            Semantics.Rule.rule_id = r.Semantics.Rule.rule_id ^ ".ghost";
            body =
              Semantics.Rule.State_guard
                {
                  target =
                    Semantics.Rule.Call_to
                      { callee = "hallucinatedMethod"; in_method = None };
                  condition;
                };
          })
  | Semantics.Rule.Lock_discipline _ -> r

let apply_noise (noise : noise) (ticket_id : string) (rules : Semantics.Rule.t list)
    : Semantics.Rule.t list =
  if noise.epsilon <= 0.0 then rules
  else
    let s = ref (lcg_next (noise.seed + hash_string ticket_id)) in
    List.map
      (fun r ->
        let p, s' = draw !s in
        s := s';
        if p < noise.epsilon then (
          let k, s'' = draw !s in
          s := s'';
          corrupt_rule (int_of_float (k *. 3.0)) r)
        else r)
      rules

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** The degraded answer an unavailable oracle gives: no rules, reason
    recorded.  Downstream cross-checking accepts nothing from it, so an
    oracle outage shrinks the rulebook instead of crashing learning. *)
let degraded_inference (t : Ticket.t) (reason : string) : inferred =
  Resilience.Events.emit
    (Resilience.Events.Component_degraded
       { component = "oracle:" ^ t.Ticket.ticket_id; reason });
  {
    inf_ticket = t.Ticket.ticket_id;
    inf_high_level = Fmt.str "(oracle degraded: %s)" reason;
    inf_rules = [];
    inf_reasoning = [ reason ];
  }

(** Run inference on one ticket.  Deterministic for a fixed [noise].

    The oracle is an injection point ({!Resilience.Fault.Oracle}):
    crash/transient faults raise {!Resilience.Fault.Injected} (the
    learning pipeline retries, then degrades); budget faults and an
    open breaker return a {!degraded_inference} with no rules. *)
let infer ?(noise = no_noise) (t : Ticket.t) : inferred =
  Telemetry.Trace.with_span ~cat:"oracle"
    ~args:[ ("ticket", t.Ticket.ticket_id) ]
    "oracle.infer"
  @@ fun () ->
  if not (Resilience.Breaker.proceed Resilience.Fault.Oracle) then
    degraded_inference t "oracle circuit open"
  else
    match Resilience.Injector.draw Resilience.Fault.Oracle with
    | Some (Resilience.Fault.Crash | Resilience.Fault.Transient) as k ->
        Resilience.Injector.raise_fault Resilience.Fault.Oracle (Option.get k)
    | Some Resilience.Fault.Budget ->
        Resilience.Breaker.failure Resilience.Fault.Oracle;
        degraded_inference t "injected budget exhaustion"
    | None ->
        let high_level = first_sentence t.Ticket.discussion in
        let origin = t.Ticket.ticket_id in
        let buggy = t.Ticket.buggy_program and patched = t.Ticket.patched_program in
        let guard_rules, guard_reasoning =
          state_guard_rules ~origin ~buggy ~patched high_level
        in
        let lock_rules, lock_reasoning = lock_rules ~origin ~buggy ~patched high_level in
        let rules = apply_noise noise t.Ticket.ticket_id (guard_rules @ lock_rules) in
        Resilience.Breaker.success Resilience.Fault.Oracle;
        {
          inf_ticket = t.Ticket.ticket_id;
          inf_high_level = high_level;
          inf_rules = rules;
          inf_reasoning = guard_reasoning @ lock_reasoning;
        }

(** Pluggable client type: a real LLM backend would map the prompt text to
    the same structured output. *)
type client = Ticket.t -> inferred

let default_client : client = fun t -> infer t

(* ------------------------------------------------------------------ *)
(* JSON rendering (the exact output format of Listing 1)               *)
(* ------------------------------------------------------------------ *)

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rule_to_json (r : Semantics.Rule.t) : string =
  let target, condition =
    match r.Semantics.Rule.body with
    | Semantics.Rule.State_guard { target; condition } ->
        (Semantics.Rule.target_spec_to_string target, Smt.Formula.to_string condition)
    | Semantics.Rule.Lock_discipline { scope } ->
        (Semantics.Rule.lock_scope_to_string scope, "no blocking call while holding a monitor")
  in
  Fmt.str
    {|{"description": "%s", "target_statement": "%s", "condition_statement": "%s"}|}
    (json_escape r.Semantics.Rule.description)
    (json_escape target) (json_escape condition)

let to_json (inf : inferred) : string =
  Fmt.str
    {|{"high_level_semantics": "%s",
 "low_level_semantics": [%s],
 "reasoning": "%s"}|}
    (json_escape inf.inf_high_level)
    (String.concat ",\n   " (List.map rule_to_json inf.inf_rules))
    (json_escape (String.concat " | " inf.inf_reasoning))
