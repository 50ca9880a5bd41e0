(** Experiment E10 — §5 open question (iii): composing validated low-level
    semantics into high-level guarantees.

    For a case we state the *high-level* property the paper's two-phase
    inference names (e.g. "every ephemeral node's owner session exists and
    is not closing") as a MiniJava invariant, and bounded-model-check it
    over all client operation sequences ({!Mc.Explorer}).  Alongside, we
    enforce the case's low-level rulebook on the same version.  The
    composition claim is checked empirically at every stage:

    - when all low-level rules hold, the bounded exploration finds no
      high-level violation;
    - when a low-level rule is violated (the regression stage), the
      explorer produces a concrete operation sequence that breaks the
      high-level property — the very incident the ticket described. *)

type scenario_def = {
  sd_case : string;
  sd_high_level : string;
  sd_harness : string;  (** MiniJava appended to the feature source *)
  sd_ops : int -> string list;  (** ops available at a given stage *)
  sd_depth : int;
}

let scenarios : scenario_def list =
  [
    {
      sd_case = "zk-ephemeral";
      sd_high_level =
        "every ephemeral node's owner session exists and is not closing";
      sd_harness =
        {|
method mcInit(): PrepRequestProcessor {
  var prep: PrepRequestProcessor = makeEphemeralStack();
  var s: Session = new Session(1, "svc-registration");
  prep.tracker.addSession(s);
  return prep;
}
method mcOpCreatePrep(prep: PrepRequestProcessor) {
  prep.pRequest2TxnCreate(1, "/svc/a");
}
method mcOpClose(prep: PrepRequestProcessor) {
  prep.closeSession(1);
}
method mcInv(prep: PrepRequestProcessor): bool {
  var paths: list = mapKeys(prep.tree.ephemerals);
  var i: int = 0;
  while (i < listSize(paths)) {
    var owner: int = mapGet(prep.tree.ephemerals, listGet(paths, i));
    var s: Session = prep.tracker.getSession(owner);
    if (s == null) {
      return false;
    }
    if (s.isClosing()) {
      return false;
    }
    i = i + 1;
  }
  return true;
}
|};
      sd_ops =
        (fun stage ->
          [ "mcOpCreatePrep"; "mcOpClose" ]
          @ (if stage >= 2 then [ "mcOpCreateLearner" ] else []));
      sd_depth = 3;
    };
    {
      sd_case = "hdfs-safemode";
      sd_high_level = "the namespace does not change while the namenode is in safe mode";
      sd_harness =
        {|
class McHarness {
  field fs: FSNamesystem;
  field mutationsAtEntry: int = 0;
}
method mcInit(): McHarness {
  var h: McHarness = new McHarness();
  h.fs = new FSNamesystem();
  return h;
}
method mcOpEnterSafeMode(h: McHarness) {
  h.fs.safeMode = true;
  h.mutationsAtEntry = h.fs.mutations;
}
method mcOpLeaveSafeMode(h: McHarness) {
  h.fs.safeMode = false;
}
method mcOpMkdir(h: McHarness) {
  h.fs.mkdir("/client/dir");
}
method mcInv(h: McHarness): bool {
  if (h.fs.safeMode) {
    return h.fs.mutations == h.mutationsAtEntry;
  }
  return true;
}
|}
        ^ {|
method mcOpConcat(h: McHarness) {
  // the concat client: ensure sources exist, then issue the operation
  mapPut(h.fs.files, "/a", 1);
  mapPut(h.fs.files, "/b", 1);
  h.fs.concatFiles("/a", "/b");
}
|};
      sd_ops =
        (fun stage ->
          [ "mcOpEnterSafeMode"; "mcOpLeaveSafeMode"; "mcOpMkdir" ]
          @ (if stage >= 2 then [ "mcOpConcat" ] else []));
      sd_depth = 3;
    };
    {
      sd_case = "cassandra-gossip-generation";
      sd_high_level = "an endpoint's recorded generation never moves backwards";
      sd_harness =
        {|
method mcInit(): Gossiper {
  var g: Gossiper = makeGossiper();
  return g;
}
method mcOpSynNewer(g: Gossiper) {
  g.handleSyn(new GossipMessage("10.0.0.1", 7, 1, "NORMAL"));
}
method mcOpSynStale(g: Gossiper) {
  g.handleSyn(new GossipMessage("10.0.0.1", 2, 99, "shutdown"));
}
method mcInv(g: Gossiper): bool {
  var e: EndpointState = mapGet(g.endpoints, "10.0.0.1");
  if (e == null) {
    return true;
  }
  return e.generation >= 5;
}
|};
      sd_ops =
        (fun stage ->
          [ "mcOpSynNewer"; "mcOpSynStale" ]
          @ (if stage >= 2 then [ "mcOpAckStale" ] else []));
      sd_depth = 3;
    };
  ]

(* the learner op only exists from stage 2 on, so it lives in a separate
   harness fragment appended conditionally *)
let stage_harness (sd : scenario_def) (stage : int) : string =
  match (sd.sd_case, stage >= 2) with
  | "zk-ephemeral", true ->
      sd.sd_harness
      ^ {|
method mcOpCreateLearner(prep: PrepRequestProcessor) {
  var lrp: LearnerRequestProcessor = new LearnerRequestProcessor(prep.tracker, prep.tree);
  lrp.forwardCreate(1, "/svc/b");
}
|}
  | "cassandra-gossip-generation", true ->
      sd.sd_harness
      ^ {|
method mcOpAckStale(g: Gossiper) {
  g.handleAck(new GossipMessage("10.0.0.1", 1, 99, "shutdown"));
}
|}
  | _ -> sd.sd_harness

type stage_result = {
  sr_stage : int;
  sr_rules_hold : bool;  (** low-level rulebook clean on this version *)
  sr_bounded : Mc.Explorer.outcome;  (** bounded high-level verdict *)
}

type result = {
  res_case : string;
  res_high_level : string;
  res_stages : stage_result list;
  res_composition_holds : bool;
      (** at every stage: rules hold => bounded-safe, and the regression
          stage shows both a rule violation and a concrete high-level
          counterexample *)
}

let check_stage (sd : scenario_def) (c : Corpus.Case.t)
    (book : Semantics.Rulebook.t) (stage : int) : stage_result =
  let src = c.Corpus.Case.source stage ^ stage_harness sd stage in
  let program = Minilang.Parser.program ~file:(sd.sd_case ^ "-mc.mj") src in
  let rules_hold =
    Pipeline.findings (Pipeline.enforce (Corpus.Case.program_at c stage) book) = []
  in
  let outcome =
    Mc.Explorer.explore
      ~config:{ Mc.Explorer.default_config with Mc.Explorer.depth = sd.sd_depth }
      {
        Mc.Explorer.program;
        init = "mcInit";
        ops = sd.sd_ops stage;
        invariant = "mcInv";
      }
  in
  { sr_stage = stage; sr_rules_hold = rules_hold; sr_bounded = outcome }

let run_case (sd : scenario_def) : result =
  let c =
    match Corpus.Registry.find Corpus.Registry.builtin sd.sd_case with
    | Some c -> c
    | None -> invalid_arg (sd.sd_case ^ " missing")
  in
  let outcome = Pipeline.learn (Corpus.Case.original_ticket c) in
  let book =
    Semantics.Rulebook.of_rules ~system:c.Corpus.Case.system outcome.Pipeline.accepted
  in
  let stages = List.map (check_stage sd c book) [ 1; 2; 3 ] in
  let composition_holds =
    List.for_all
      (fun sr ->
        match (sr.sr_rules_hold, sr.sr_bounded) with
        | true, Mc.Explorer.Safe _ -> true
        | false, Mc.Explorer.Unsafe _ -> true
        | _, Mc.Explorer.Engine_error _ -> false
        | true, Mc.Explorer.Unsafe _ -> false
        | false, Mc.Explorer.Safe _ ->
            (* a rule violation without a high-level counterexample within
               the bound is not a refutation of composition, but we report
               it conservatively *)
            false)
      stages
  in
  {
    res_case = sd.sd_case;
    res_high_level = sd.sd_high_level;
    res_stages = stages;
    res_composition_holds = composition_holds;
  }

let run () : result list = List.map run_case scenarios

let print (results : result list) : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  pf "E10 / §5 — composing low-level semantics into high-level guarantees";
  pf "--------------------------------------------------------------------";
  List.iter
    (fun r ->
      pf "%s — high-level property: %s" r.res_case r.res_high_level;
      List.iter
        (fun sr ->
          pf "  stage %d: low-level rules %s; bounded check: %s" sr.sr_stage
            (if sr.sr_rules_hold then "HOLD" else "VIOLATED")
            (Mc.Explorer.outcome_to_string sr.sr_bounded))
        r.res_stages;
      pf "  composition claim %s" (if r.res_composition_holds then "supported" else "NOT supported");
      pf "")
    results;
  pf "reading: whenever the learned low-level contracts hold, no operation";
  pf "sequence within the bound can break the high-level property; on the";
  pf "regression stage the explorer synthesizes the incident's exact trace.";
  Buffer.contents buf
