(** Concrete interpreter for MiniJava.

    The interpreter is the "JVM" of the reproduction: subject-system code
    and its tests run on it, and it is the only implementation of the
    language's concrete semantics.  It maintains:

    - a growable heap of objects / maps / lists ({!Value});
    - a logical clock (one tick per statement, more for blocking
      builtins) used by [now()];
    - a *lock set* tracking the objects held by enclosing [synchronized]
      blocks, so that blocking builtins can report the locks they block
      under (the signal behind the paper's Figure 6 rules);
    - an event trace, fed through an optional hook so callers (tests,
      witness-replay triage) can observe execution.

    The evaluator is a functor over a {!SHADOW} layer: every value carries
    a shadow, boolean evaluations yield facts, and execution calls the
    layer's hooks at statements, branches, calls and blocking builtins.
    The plain interpreter is [Make (No_shadow)]; the concolic engine
    ([lib/symexec]) instantiates it with symbolic shadows, so the paths it
    records are the paths this interpreter takes.

    Errors are reported as exceptions: user [throw] surfaces as
    {!Mini_throw}, runtime type errors as {!Runtime_error}, exhausted fuel
    as {!Out_of_fuel} (the interpreter is deliberately total given finite
    fuel — subject systems contain intentional livelocks). *)

type event =
  | Ev_stmt of int  (** statement [sid] about to execute *)
  | Ev_lock of { sid : int; addr : int }
  | Ev_unlock of { sid : int; addr : int }
  | Ev_blocking of { sid : int; op : string; locks_held : int list }

exception Mini_throw of Value.t

exception Runtime_error of string * Loc.t

exception Out_of_fuel

exception Assertion_failure of string * int  (** message, sid *)

type config = {
  fuel : int;  (** maximum number of statements to execute *)
  on_event : (event -> unit) option;
  max_call_depth : int;
}

let default_config = { fuel = 200_000; on_event = None; max_call_depth = 400 }

type test_outcome =
  | Passed
  | Failed of string  (** assertion failure *)
  | Errored of string  (** uncaught throw or runtime error *)

let runtime_error loc fmt = Fmt.kstr (fun m -> raise (Runtime_error (m, loc))) fmt

(* ------------------------------------------------------------------ *)
(* The shadow seam                                                     *)
(* ------------------------------------------------------------------ *)

module type SHADOW = sig
  type sym

  type tagged = { v : Value.t; sym : sym }

  val none : sym

  val literal : Value.t -> sym

  val field : cls:string -> string -> sym

  val decl : Ast.program -> Ast.typ -> sym -> sym

  val param : Ast.program -> string -> Ast.typ -> sym -> sym

  type fact

  val no_fact : fact

  val compare : Ast.binop -> tagged -> tagged -> bool -> fact

  val truth : sym -> bool -> fact

  val both : fact -> fact -> fact

  type run

  type frame

  val enter : run -> string -> frame

  val leave : run -> unit

  val arrive :
    run -> frame -> Value.heap -> sid:int -> locks:int list -> self:tagged ->
    (string, tagged) Hashtbl.t -> unit

  val branch : run -> frame -> sid:int -> first:bool -> fact -> bool -> unit

  val blocking : run -> frame -> sid:int -> string -> locks:int list -> unit
end

module No_shadow = struct
  type sym = unit

  type tagged = { v : Value.t; sym : sym }

  let none = ()

  let literal _ = ()

  let field ~cls:_ _ = ()

  let decl _ _ () = ()

  let param _ _ _ () = ()

  type fact = unit

  let no_fact = ()

  let compare _ _ _ _ = ()

  let truth () _ = ()

  let both () () = ()

  type run = unit

  type frame = unit

  let enter () _ = ()

  let leave () = ()

  let arrive () () _ ~sid:_ ~locks:_ ~self:_ _ = ()

  let branch () () ~sid:_ ~first:_ () _ = ()

  let blocking () () ~sid:_ _ ~locks:_ = ()
end

(* ------------------------------------------------------------------ *)
(* Builtin argument coercions                                          *)
(* ------------------------------------------------------------------ *)

let as_int loc = function
  | Value.V_int n -> n
  | v -> runtime_error loc "expected int, got %s" (Value.type_name v)

let as_str loc = function
  | Value.V_str s -> s
  | v -> runtime_error loc "expected str, got %s" (Value.type_name v)

let as_map heap loc = function
  | Value.V_ref addr -> (
      match Value.heap_get heap addr with
      | Some (Value.C_map m) -> m
      | _ -> runtime_error loc "expected map reference")
  | Value.V_null -> runtime_error loc "null map dereference"
  | v -> runtime_error loc "expected map, got %s" (Value.type_name v)

let as_list heap loc = function
  | Value.V_ref addr -> (
      match Value.heap_get heap addr with
      | Some (Value.C_list l) -> l
      | _ -> runtime_error loc "expected list reference")
  | Value.V_null -> runtime_error loc "null list dereference"
  | v -> runtime_error loc "expected list, got %s" (Value.type_name v)

let not_bool_operand loc op v =
  runtime_error loc "'%s' applied to %s" (Ast.binop_to_string op) (Value.type_name v)

let default_of_type heap : Ast.typ -> Value.t = function
  | Ast.T_int -> Value.V_int 0
  | Ast.T_bool -> Value.V_bool false
  | Ast.T_str -> Value.V_str ""
  | Ast.T_map -> Value.V_ref (Value.heap_alloc heap (Value.C_map (ref [])))
  | Ast.T_list -> Value.V_ref (Value.heap_alloc heap (Value.C_list (ref [])))
  | Ast.T_ref _ | Ast.T_void | Ast.T_any -> Value.V_null

module Make (S : SHADOW) = struct
  type state = {
    program : Ast.program;
    heap : Value.heap;
    mutable clock : int;
    mutable fuel_left : int;
    mutable locks : int list;  (** addresses of currently-held locks, innermost first *)
    mutable depth : int;
    console : Buffer.t;
    logbuf : Buffer.t;
    config : config;
    shadow : S.run;
  }

  type frame = { vars : (string, S.tagged) Hashtbl.t; self : S.tagged; sh : S.frame }

  let create ?(config = default_config) ~shadow (program : Ast.program) : state =
    {
      program;
      heap = Value.heap_create ();
      clock = 0;
      fuel_left = config.fuel;
      locks = [];
      depth = 0;
      console = Buffer.create 256;
      logbuf = Buffer.create 256;
      config;
      shadow;
    }

  let emit st ev = match st.config.on_event with None -> () | Some f -> f ev

  let tick st =
    st.clock <- st.clock + 1;
    st.fuel_left <- st.fuel_left - 1;
    if st.fuel_left <= 0 then raise Out_of_fuel

  let untagged v : S.tagged = { S.v; sym = S.none }

  let literal v : S.tagged = { S.v; sym = S.literal v }

  let reshadow (t : S.tagged) sym = if sym == t.S.sym then t else { t with sym }

  let values (ts : S.tagged list) = List.map (fun (t : S.tagged) -> t.S.v) ts

  type flow = F_normal | F_return of S.tagged | F_break | F_continue

  (* ---------------------------------------------------------------- *)
  (* Builtin implementations                                          *)
  (* ---------------------------------------------------------------- *)

  let call_builtin st frame ~sid ~loc name (args : Value.t list) : Value.t =
    let blocking op =
      emit st (Ev_blocking { sid; op; locks_held = st.locks });
      S.blocking st.shadow frame.sh ~sid op ~locks:st.locks;
      (* blocking ops consume extra logical time *)
      st.clock <- st.clock + 10
    in
    match (name, args) with
    | "mapNew", [] -> Value.V_ref (Value.heap_alloc st.heap (Value.C_map (ref [])))
    | "mapGet", [ m; k ] -> (
        match Value.map_get (as_map st.heap loc m) k with
        | Some v -> v
        | None -> Value.V_null)
    | "mapPut", [ m; k; v ] ->
        Value.map_put (as_map st.heap loc m) k v;
        Value.V_null
    | "mapRemove", [ m; k ] ->
        Value.map_remove (as_map st.heap loc m) k;
        Value.V_null
    | "mapContains", [ m; k ] ->
        Value.V_bool (Value.map_contains (as_map st.heap loc m) k)
    | "mapSize", [ m ] -> Value.V_int (List.length !(as_map st.heap loc m))
    | "mapKeys", [ m ] ->
        let keys = List.map fst !(as_map st.heap loc m) in
        Value.V_ref (Value.heap_alloc st.heap (Value.C_list (ref keys)))
    | "listNew", [] -> Value.V_ref (Value.heap_alloc st.heap (Value.C_list (ref [])))
    | "listAdd", [ l; v ] ->
        let cell = as_list st.heap loc l in
        cell := !cell @ [ v ];
        Value.V_null
    | "listGet", [ l; i ] -> (
        let cell = as_list st.heap loc l in
        let i = as_int loc i in
        match List.nth_opt !cell i with
        | Some v -> v
        | None ->
            runtime_error loc "list index %d out of bounds (size %d)" i
              (List.length !cell))
    | "listSet", [ l; i; v ] ->
        let cell = as_list st.heap loc l in
        let i = as_int loc i in
        if i < 0 || i >= List.length !cell then
          runtime_error loc "list index %d out of bounds (size %d)" i (List.length !cell);
        cell := List.mapi (fun j x -> if j = i then v else x) !cell;
        Value.V_null
    | "listSize", [ l ] -> Value.V_int (List.length !(as_list st.heap loc l))
    | "listContains", [ l; v ] ->
        Value.V_bool (List.exists (Value.equal v) !(as_list st.heap loc l))
    | "listRemoveAt", [ l; i ] ->
        let cell = as_list st.heap loc l in
        let i = as_int loc i in
        cell := List.filteri (fun j _ -> j <> i) !cell;
        Value.V_null
    | "toStr", [ v ] -> Value.V_str (Value.to_string ~heap:st.heap v)
    | "strLen", [ s ] -> Value.V_int (String.length (as_str loc s))
    | "concat", [ a; b ] -> Value.V_str (as_str loc a ^ as_str loc b)
    | "startsWith", [ s; p ] ->
        let s = as_str loc s and p = as_str loc p in
        Value.V_bool
          (String.length p <= String.length s && String.sub s 0 (String.length p) = p)
    | "abs", [ n ] -> Value.V_int (abs (as_int loc n))
    | "min", [ a; b ] -> Value.V_int (min (as_int loc a) (as_int loc b))
    | "max", [ a; b ] -> Value.V_int (max (as_int loc a) (as_int loc b))
    | "now", [] -> Value.V_int st.clock
    | "print", [ v ] ->
        Buffer.add_string st.console (Value.to_string ~heap:st.heap v);
        Buffer.add_char st.console '\n';
        Value.V_null
    | "log", [ v ] ->
        Buffer.add_string st.logbuf (Value.to_string ~heap:st.heap v);
        Buffer.add_char st.logbuf '\n';
        Value.V_null
    | "fail", [ v ] -> raise (Mini_throw v)
    | ("writeRecord" | "fsync"), [ _ ] | "networkSend", [ _; _ ] ->
        blocking name;
        Value.V_null
    | ("readRecord" | "networkRecv"), [ v ] | "rpcCall", [ _; v ] ->
        blocking name;
        v
    | "sleepMs", [ n ] ->
        blocking "sleepMs";
        st.clock <- st.clock + as_int loc n;
        Value.V_null
    | _ ->
        runtime_error loc "builtin %s: bad arity (%d args)" name (List.length args)

  (* A fresh object of class [cls]: each field is [init fd e] for its
     initialiser [e], else its type's default. *)
  let new_object st (cls : Ast.class_decl) init : Value.t =
    let obj = Value.new_obj ~cls:cls.Ast.c_name in
    let addr = Value.heap_alloc st.heap (Value.C_obj obj) in
    List.iter
      (fun (fd : Ast.field_decl) ->
        let v =
          match fd.Ast.f_init with
          | Some e -> init fd e
          | None -> default_of_type st.heap fd.Ast.f_typ
        in
        Value.obj_set obj fd.Ast.f_name v)
      cls.Ast.c_fields;
    Value.V_ref addr

  (* ---------------------------------------------------------------- *)
  (* Expression evaluation                                            *)
  (* ---------------------------------------------------------------- *)

  let rec eval st (frame : frame) (e : Ast.expr) : S.tagged =
    let loc = e.Ast.eloc in
    match e.Ast.e with
    | Ast.Int_lit n -> literal (Value.V_int n)
    | Ast.Bool_lit b -> literal (Value.V_bool b)
    | Ast.Str_lit s -> literal (Value.V_str s)
    | Ast.Null_lit -> literal Value.V_null
    | Ast.This -> frame.self
    | Ast.Var x -> (
        match Hashtbl.find_opt frame.vars x with
        | Some t -> t
        | None -> runtime_error loc "unbound variable %s" x)
    | Ast.Field (o, f) -> (
        match (eval st frame o).S.v with
        | Value.V_ref addr -> (
            match Value.heap_get st.heap addr with
            | Some (Value.C_obj obj) -> (
                match Value.obj_get obj f with
                | Some v -> { S.v; sym = S.field ~cls:obj.Value.o_class f }
                | None -> runtime_error loc "object %s has no field %s" obj.Value.o_class f)
            | Some _ -> runtime_error loc "field access %s on non-object" f
            | None -> runtime_error loc "dangling reference")
        | Value.V_null -> runtime_error loc "null dereference reading field %s" f
        | v -> runtime_error loc "field access %s on %s" f (Value.type_name v))
    | Ast.Binop _ | Ast.Unop _ -> untagged (fst (eval_fact st frame e))
    | Ast.Call (name, args) -> (
        let argv = List.map (eval st frame) args in
        if Builtins.is_builtin name then
          untagged (call_builtin st frame ~sid:(-1) ~loc name (values argv))
        else
          match Ast.find_func st.program name with
          | Some f -> invoke st ~qname:name f (untagged Value.V_null) argv loc
          | None -> runtime_error loc "unknown function %s" name)
    | Ast.Method_call (o, m, args) ->
        let ot = eval st frame o in
        invoke_method st ~loc ot m (List.map (eval st frame) args)
    | Ast.New (cls_name, args) -> (
        match Ast.find_class st.program cls_name with
        | None -> runtime_error loc "unknown class %s" cls_name
        | Some cls ->
            let self = untagged (new_object st cls (fun _ e -> (eval st frame e).S.v)) in
            let argv = List.map (eval st frame) args in
            (match Ast.find_method_in_class cls "init" with
            | Some md -> ignore (invoke st ~qname:(cls_name ^ ".init") md self argv loc)
            | None ->
                if argv <> [] then
                  runtime_error loc "class %s has no init method but got %d args"
                    cls_name (List.length argv));
            self)

  (* method [m] of the receiver's runtime class *)
  and invoke_method st ~loc (recv : S.tagged) m (argv : S.tagged list) : S.tagged =
    match recv.S.v with
    | Value.V_ref addr -> (
        match Value.heap_get st.heap addr with
        | Some (Value.C_obj obj) -> (
            match Ast.find_class st.program obj.Value.o_class with
            | None -> runtime_error loc "object of unknown class %s" obj.Value.o_class
            | Some cls -> (
                match Ast.find_method_in_class cls m with
                | Some md -> invoke st ~qname:(cls.Ast.c_name ^ "." ^ m) md recv argv loc
                | None -> runtime_error loc "class %s has no method %s" cls.Ast.c_name m))
        | Some _ -> runtime_error loc "method call %s on non-object" m
        | None -> runtime_error loc "dangling reference")
    | Value.V_null -> runtime_error loc "null dereference calling method %s" m
    | v -> runtime_error loc "method call %s on %s" m (Value.type_name v)

  (* An operator expression, or any expression in guard position: its
     concrete value and the fact its (short-circuited) evaluation
     established.  Operands are evaluated left to right. *)
  and eval_fact st frame (e : Ast.expr) : Value.t * S.fact =
    let loc = e.Ast.eloc in
    match e.Ast.e with
    | Ast.Binop (((Ast.And | Ast.Or) as op), a, b) -> (
        (* [&&] stops at false, [||] at true *)
        match eval_fact st frame a with
        | (Value.V_bool x as va), fa when x = (op = Ast.Or) -> (va, fa)
        | Value.V_bool _, fa -> (
            match eval_fact st frame b with
            | (Value.V_bool _ as vb), fb -> (vb, S.both fa fb)
            | v, _ -> not_bool_operand loc op v)
        | v, _ -> not_bool_operand loc op v)
    | Ast.Unop (Ast.Not, a) -> (
        match eval_fact st frame a with
        | Value.V_bool b, fa -> (Value.V_bool (not b), fa)
        | v, _ -> runtime_error loc "'!' applied to %s" (Value.type_name v))
    | Ast.Binop (op, a, b) -> (
        let ta = eval st frame a in
        let tb = eval st frame b in
        match (op, ta.S.v, tb.S.v) with
        | Ast.Add, Value.V_int x, Value.V_int y -> (Value.V_int (x + y), S.no_fact)
        | Ast.Add, Value.V_str x, y ->
            (Value.V_str (x ^ Value.to_string ~heap:st.heap y), S.no_fact)
        | Ast.Sub, Value.V_int x, Value.V_int y -> (Value.V_int (x - y), S.no_fact)
        | Ast.Mul, Value.V_int x, Value.V_int y -> (Value.V_int (x * y), S.no_fact)
        | Ast.Div, Value.V_int x, Value.V_int y ->
            if y = 0 then runtime_error loc "division by zero"
            else (Value.V_int (x / y), S.no_fact)
        | Ast.Mod, Value.V_int x, Value.V_int y ->
            if y = 0 then runtime_error loc "modulo by zero"
            else (Value.V_int (x mod y), S.no_fact)
        | _ ->
            let holds =
              match (op, ta.S.v, tb.S.v) with
              | Ast.Eq, x, y -> Value.equal x y
              | Ast.Neq, x, y -> not (Value.equal x y)
              | Ast.Lt, Value.V_int x, Value.V_int y -> x < y
              | Ast.Le, Value.V_int x, Value.V_int y -> x <= y
              | Ast.Gt, Value.V_int x, Value.V_int y -> x > y
              | Ast.Ge, Value.V_int x, Value.V_int y -> x >= y
              | Ast.Lt, Value.V_str x, Value.V_str y -> x < y
              | Ast.Gt, Value.V_str x, Value.V_str y -> x > y
              | _ ->
                  runtime_error loc "'%s' applied to %s and %s" (Ast.binop_to_string op)
                    (Value.type_name ta.S.v) (Value.type_name tb.S.v)
            in
            (Value.V_bool holds, S.compare op ta tb holds))
    | Ast.Unop (Ast.Neg, a) -> (
        match (eval st frame a).S.v with
        | Value.V_int n -> (Value.V_int (-n), S.no_fact)
        | v -> runtime_error loc "unary '-' applied to %s" (Value.type_name v))
    | Ast.Int_lit _ | Ast.Bool_lit _ | Ast.Str_lit _ | Ast.Null_lit | Ast.Var _
    | Ast.This | Ast.Field _ | Ast.Call _ | Ast.Method_call _ | Ast.New _ -> (
        let t = eval st frame e in
        match t.S.v with
        | Value.V_bool b -> (t.S.v, S.truth t.S.sym b)
        | v -> (v, S.no_fact))

  (* an [if]/[while] guard: the branch taken, reported to the shadow *)
  and guard st frame (stmt : Ast.stmt) ~first ~what (cond : Ast.expr) : bool =
    match eval_fact st frame cond with
    | Value.V_bool taken, fact ->
        S.branch st.shadow frame.sh ~sid:stmt.Ast.sid ~first fact taken;
        taken
    | v, _ ->
        runtime_error stmt.Ast.sloc "%s condition is %s, not bool" what
          (Value.type_name v)

  (* ---------------------------------------------------------------- *)
  (* Statement execution                                              *)
  (* ---------------------------------------------------------------- *)

  and exec_block st frame (b : Ast.block) : flow =
    match b with
    | [] -> F_normal
    | stmt :: rest -> (
        match exec_stmt st frame stmt with
        | F_normal -> exec_block st frame rest
        | (F_return _ | F_break | F_continue) as f -> f)

  and exec_stmt st frame (stmt : Ast.stmt) : flow =
    let sid = stmt.Ast.sid in
    tick st;
    (match st.config.on_event with Some f -> f (Ev_stmt sid) | None -> ());
    S.arrive st.shadow frame.sh st.heap ~sid ~locks:st.locks ~self:frame.self
      frame.vars;
    let loc = stmt.Ast.sloc in
    match stmt.Ast.s with
    | Ast.Decl (x, ty, init) ->
        let t = match init with Some e -> eval st frame e | None -> untagged Value.V_null in
        Hashtbl.replace frame.vars x (reshadow t (S.decl st.program ty t.S.sym));
        F_normal
    | Ast.Assign (Ast.Lv_var x, e) ->
        Hashtbl.replace frame.vars x (eval st frame e);
        F_normal
    | Ast.Assign (Ast.Lv_field (o, f), e) -> (
        let ov = (eval st frame o).S.v in
        let v = (eval st frame e).S.v in
        match ov with
        | Value.V_ref addr -> (
            match Value.heap_get st.heap addr with
            | Some (Value.C_obj obj) ->
                Value.obj_set obj f v;
                F_normal
            | Some _ -> runtime_error loc "field write %s on non-object" f
            | None -> runtime_error loc "dangling reference")
        | Value.V_null -> runtime_error loc "null dereference writing field %s" f
        | v' -> runtime_error loc "field write %s on %s" f (Value.type_name v'))
    | Ast.If (cond, b1, b2) ->
        if guard st frame stmt ~first:true ~what:"if" cond then exec_block st frame b1
        else exec_block st frame b2
    | Ast.While (cond, body) ->
        let rec loop first =
          if not (guard st frame stmt ~first ~what:"while" cond) then F_normal
          else (
            tick st;
            match exec_block st frame body with
            | F_normal | F_continue -> loop false
            | F_break -> F_normal
            | F_return _ as f -> f)
        in
        loop true
    | Ast.Return None -> F_return (untagged Value.V_null)
    | Ast.Return (Some e) -> F_return (eval st frame e)
    | Ast.Throw e -> raise (Mini_throw (eval st frame e).S.v)
    | Ast.Try (body, exn_var, handler) -> (
        try exec_block st frame body
        with Mini_throw v ->
          Hashtbl.replace frame.vars exn_var (untagged v);
          exec_block st frame handler)
    | Ast.Sync (obj_e, body) -> (
        let addr =
          match (eval st frame obj_e).S.v with
          | Value.V_ref a -> a
          | v -> runtime_error loc "synchronized on %s, not an object" (Value.type_name v)
        in
        emit st (Ev_lock { sid; addr });
        st.locks <- addr :: st.locks;
        let release () =
          (match st.locks with
          | a :: rest when a = addr -> st.locks <- rest
          | _ -> st.locks <- List.filter (fun a -> a <> addr) st.locks);
          emit st (Ev_unlock { sid; addr })
        in
        match exec_block st frame body with
        | f ->
            release ();
            f
        | exception e ->
            release ();
            raise e)
    | Ast.Expr e ->
        (* builtin calls in statement position get the statement's sid, so
           blocking events can be located precisely *)
        (match e.Ast.e with
        | Ast.Call (name, args) when Builtins.is_builtin name ->
            let argv = values (List.map (eval st frame) args) in
            ignore (call_builtin st frame ~sid ~loc:e.Ast.eloc name argv)
        | _ -> ignore (eval st frame e));
        F_normal
    | Ast.Assert (cond, msg) -> (
        match (eval st frame cond).S.v with
        | Value.V_bool true -> F_normal
        | Value.V_bool false -> raise (Assertion_failure (msg, sid))
        | v -> runtime_error loc "assert condition is %s, not bool" (Value.type_name v))
    | Ast.Break -> F_break
    | Ast.Continue -> F_continue

  and invoke st ~qname (m : Ast.method_decl) (self : S.tagged) (args : S.tagged list)
      (loc : Loc.t) : S.tagged =
    if st.depth >= st.config.max_call_depth then
      runtime_error loc "call depth limit exceeded calling %s" qname;
    if List.length args <> List.length m.Ast.m_params then
      runtime_error loc "%s expects %d args, got %d" qname
        (List.length m.Ast.m_params) (List.length args);
    let vars = Hashtbl.create 16 in
    List.iter2
      (fun (p, ty) (t : S.tagged) ->
        Hashtbl.replace vars p (reshadow t (S.param st.program p ty t.S.sym)))
      m.Ast.m_params args;
    let frame = { vars; self; sh = S.enter st.shadow qname } in
    st.depth <- st.depth + 1;
    let finish () =
      S.leave st.shadow;
      st.depth <- st.depth - 1
    in
    match exec_block st frame m.Ast.m_body with
    | F_normal ->
        finish ();
        untagged Value.V_null
    | F_return t ->
        finish ();
        t
    | F_break | F_continue ->
        finish ();
        runtime_error loc "break/continue outside loop in %s" qname
    | exception e ->
        finish ();
        raise e

  (* ---------------------------------------------------------------- *)
  (* Entry points                                                     *)
  (* ---------------------------------------------------------------- *)

  (** Call a top-level function by name against an existing interpreter
      state (heap and clock persist across calls).  This is the API the
      bounded scenario model checker uses to apply operations one by one. *)
  let call (st : state) (name : string) (args : Value.t list) : Value.t =
    match Ast.find_func st.program name with
    | None -> runtime_error Loc.dummy "no top-level function named %s" name
    | Some f ->
        (invoke st ~qname:name f (untagged Value.V_null) (List.map untagged args)
           Loc.dummy)
          .S.v

  (** Run a [test_*] function and classify the outcome the way a CI job
      would: assertion failures are test failures; uncaught exceptions and
      runtime errors are errors; anything else passes. *)
  let test (st : state) (name : string) : test_outcome =
    match call st name [] with
    | _ -> Passed
    | exception Assertion_failure (msg, sid) ->
        Failed (Fmt.str "%s (at statement %d)" msg sid)
    | exception Mini_throw v -> Errored (Fmt.str "uncaught throw: %s" (Value.to_string v))
    | exception Runtime_error (msg, loc) ->
        Errored (Fmt.str "runtime error: %s at %a" msg Loc.pp loc)
    | exception Out_of_fuel -> Errored "out of fuel (possible livelock)"
end

(* ------------------------------------------------------------------ *)
(* The plain interpreter                                               *)
(* ------------------------------------------------------------------ *)

include Make (No_shadow)

let create ?config program = create ?config ~shadow:() program

(** Run a top-level function by name.  Returns its value. *)
let run_function ?config (program : Ast.program) (name : string) (args : Value.t list)
    : state * Value.t =
  let st = create ?config program in
  let v = call st name args in
  (st, v)

let run_test ?config (program : Ast.program) (name : string) : test_outcome =
  test (create ?config program) name

(* ------------------------------------------------------------------ *)
(* Bounded replay entry points                                         *)
(* ------------------------------------------------------------------ *)

type call_outcome =
  | Call_returned of Value.t
  | Call_threw of string  (** a MiniJava [throw] escaped the call *)
  | Call_error of string  (** runtime error or assertion failure *)
  | Call_exhausted  (** fuel or call-depth budget spent: inconclusive *)

let call_outcome_to_string = function
  | Call_returned v -> Fmt.str "returned %s" (Value.to_string v)
  | Call_threw m -> Fmt.str "threw %s" m
  | Call_error m -> Fmt.str "error: %s" m
  | Call_exhausted -> "budget exhausted"

(* The depth limiter raises through [runtime_error]; recognize it so the
   structured outcome reads "budget", not "program bug". *)
let depth_limit_prefix = "call depth limit"

let starts_with ~prefix s =
  String.length prefix <= String.length s
  && String.sub s 0 (String.length prefix) = prefix

let bounded (st : state) ?fuel (run : unit -> Value.t) : call_outcome =
  (match fuel with Some n -> st.fuel_left <- n | None -> ());
  match run () with
  | v -> Call_returned v
  | exception Out_of_fuel -> Call_exhausted
  | exception Mini_throw v -> Call_threw (Value.to_string ~heap:st.heap v)
  | exception Assertion_failure (msg, sid) ->
      Call_error (Fmt.str "assertion: %s (stmt %d)" msg sid)
  | exception Runtime_error (msg, _) ->
      if starts_with ~prefix:depth_limit_prefix msg then Call_exhausted
      else Call_error msg

(** Allocate a default-initialized object of a class without running its
    [init] method: field initializers are evaluated in an empty frame
    (falling back to the type default if they need context), so witness
    replay can build receivers and subjects field by field. *)
let alloc_object (st : state) (cls_name : string) : Value.t =
  match Ast.find_class st.program cls_name with
  | None -> runtime_error Loc.dummy "unknown class %s" cls_name
  | Some cls ->
      let scratch = { vars = Hashtbl.create 4; self = untagged Value.V_null; sh = () } in
      new_object st cls (fun (fd : Ast.field_decl) e ->
          try (eval st scratch e).v with _ -> default_of_type st.heap fd.Ast.f_typ)

(** Call a top-level function under a structured budget: exhaustion (fuel
    or depth) is an outcome, never a hang; exceptions are outcomes, not
    host-level raises. *)
let call_bounded ?fuel (st : state) (name : string) (args : Value.t list) :
    call_outcome =
  bounded st ?fuel (fun () -> call st name args)

(** Call a method on a receiver under the same structured budget; the
    class is resolved from the receiver's runtime object. *)
let method_call_bounded ?fuel (st : state) ~(recv : Value.t) ~(meth : string)
    (args : Value.t list) : call_outcome =
  bounded st ?fuel (fun () ->
      (invoke_method st ~loc:Loc.dummy (untagged recv) meth (List.map untagged args)).v)

(** Names of all [test_*] top-level functions of a program. *)
let test_names (program : Ast.program) : string list =
  List.filter_map
    (fun (f : Ast.method_decl) ->
      if String.length f.Ast.m_name >= 5 && String.sub f.Ast.m_name 0 5 = "test_" then
        Some f.Ast.m_name
      else None)
    program.Ast.p_funcs
