(** The metrics this benchmark reports, its result line, and
    [--compare] of two sets of result lines against the bounds in
    BENCHMARK.json. *)

(** Reported by every workload with [--trace 0]. *)
let end_to_end =
  [ ("setup_s", "s"); ("throughput_per_s", "1/s"); ("latency_ms", "ms"); ("peak_rss_mb", "MB") ]

(** Reported by every workload with [--trace 1]. *)
let per_layer =
  [
    ("corpus.assemble_ms", "ms");
    ("corpus.tickets_ms", "ms");
    ("minilang.parse_ms", "ms");
    ("oracle.infer_ms", "ms");
    ("learn.cross_check_ms", "ms");
    ("engine.enforce_ms", "ms");
    ("analysis.prepare_ms", "ms");
    ("symexec.concolic_ms", "ms");
    ("smt.judge_ms", "ms");
    ("oracle.tickets", "count");
    ("learn.accept_ratio", "ratio");
    ("engine.jobs_run", "count");
    ("engine.report_hit_ratio", "ratio");
    ("engine.incremental_reuses", "count");
    ("engine.pool_busy_ratio", "ratio");
    ("smt.solver_calls", "count");
    ("smt.full_solves", "count");
    ("smt.fastpath_saved", "count");
    ("smt.memo_hit_ratio", "ratio");
    ("core.intern_size", "count");
    ("core.intern_hit_ratio", "ratio");
    ("symexec.hits", "count");
  ]

(* shortest of %.15g / %.17g that reads back as the same float *)
let number v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let json_string s = Serve.Jsonu.to_string (Serve.Jsonu.Str s)

(** The result line and whether the run is correct: no wrong verdict,
    at least one attempted, and every metric present and finite. *)
let result_line ~trace (r : Workloads.result) : string * bool =
  let table, values = if trace then (per_layer, r.layers) else (end_to_end, r.e2e) in
  let ok = ref (r.failed = 0 && r.attempted > 0) in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v when Float.is_finite v -> v
          | _ ->
              ok := false;
              Printf.printf "FAIL: metric %s was not measured\n" name;
              0.
        in
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name) (number v)
          (json_string unit))
      table
  in
  ( Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
      !ok r.attempted r.failed (String.concat "," metrics),
    !ok )

(** The run's messages, every figure by name and unit, then the
    problems found. *)
let print_figures (r : Workloads.result) =
  List.iter print_endline (List.rev r.messages);
  List.iter
    (fun (n, v) -> Printf.printf "%s %s %s\n" n (number v) (List.assoc n end_to_end))
    r.e2e;
  List.iter
    (fun (n, v) -> Printf.printf "%s %s %s\n" n (number v) (List.assoc n per_layer))
    r.layers;
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %s\n" n (number v) u) (List.rev r.notes);
  List.iter (fun p -> Printf.printf "FAIL: %s\n" p) (List.rev r.problems)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type spec_metric = { name : string; unit : string; better : string; bound : float option }

type spec = { workloads : string list; e2e : spec_metric list; layers : spec_metric list }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_spec (path : string) : spec =
  let module J = Serve.Jsonu in
  let doc =
    match J.parse (read_file path) with
    | Ok d -> d
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let list key = Option.value ~default:[] (Option.bind (J.member key doc) J.to_list) in
  let str key o = Option.value ~default:"" (Option.bind (J.member key o) J.to_str) in
  let metric o =
    {
      name = str "name" o;
      unit = str "unit" o;
      better = str "better" o;
      bound = Option.bind (J.member "bound" o) J.to_float;
    }
  in
  {
    workloads = List.map (str "name") (list "workloads");
    e2e = List.map metric (list "end_to_end");
    layers = List.map metric (list "per_layer");
  }

(** Disagreements between BENCHMARK.json and what this benchmark runs
    and reports. *)
let spec_mismatches (spec : spec) : string list =
  let names_units ms = List.map (fun m -> (m.name, m.unit)) ms in
  List.concat
    [
      (if spec.workloads = List.map (fun w -> w.Workloads.name) Workloads.all then []
       else [ "workloads differ from BENCHMARK.json" ]);
      (if names_units spec.e2e = end_to_end then []
       else [ "end_to_end metrics differ from BENCHMARK.json" ]);
      (if names_units spec.layers = per_layer then []
       else [ "per_layer metrics differ from BENCHMARK.json" ]);
    ]

(* ------------------------------------------------------------------ *)
(* --compare                                                           *)
(* ------------------------------------------------------------------ *)

(** A set file holds one run per line: the workload name, a tab, and
    the run's result line (benchmark/run_sets.sh writes them). *)
let load_set (path : string) : (string * string, float list) Hashtbl.t =
  let module J = Serve.Jsonu in
  let values = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.index_opt line '\t' with
      | None -> ()
      | Some i -> (
          let workload = String.sub line 0 i in
          match J.parse (String.sub line (i + 1) (String.length line - i - 1)) with
          | Ok doc -> (
              match J.member "metrics" doc with
              | Some (J.Obj ms) ->
                  List.iter
                    (fun (name, m) ->
                      Option.iter
                        (fun v ->
                          let k = (workload, name) in
                          Hashtbl.replace values k
                            (v :: Option.value ~default:[] (Hashtbl.find_opt values k)))
                        (Option.bind (J.member "value" m) J.to_float))
                    ms
              | _ -> ())
          | Error e -> failwith (path ^ ": " ^ e)))
    (String.split_on_char '\n' (read_file path));
  values

(** For each (workload, end-to-end metric): each set's median and
    quartiles, and PASS when every spread but [setup_s]'s stays within
    the bound and B's median is no worse than A's by more than the
    bound.  Per-layer medians are listed without a verdict.  Returns
    whether everything passed. *)
let compare ~(spec : spec) (a_path : string) (b_path : string) : bool =
  let a = load_set a_path and b = load_set b_path in
  let all_ok = ref true in
  let summary xs =
    let q1, _, q3 = Stats.quartiles xs in
    Printf.sprintf "%10.4g [%.4g, %.4g] n=%d spread %5.1f%%" (Stats.median xs) q1 q3
      (List.length xs) (100. *. Stats.spread xs)
  in
  Printf.printf "%-11s %-22s %-46s %-46s %s\n" "workload" "metric" ("A: " ^ a_path)
    ("B: " ^ b_path) "B vs A";
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          match (Hashtbl.find_opt a (w, m.name), Hashtbl.find_opt b (w, m.name), m.bound) with
          | Some xa, Some xb, Some bound ->
              let ma = Stats.median xa and mb = Stats.median xb in
              let worse = if m.better = "higher" then (ma -. mb) /. ma else (mb -. ma) /. ma in
              let spread_ok =
                m.name = "setup_s"
                || (Stats.spread xa <= bound && Stats.spread xb <= bound)
              in
              let ok = spread_ok && worse <= bound in
              if not ok then all_ok := false;
              Printf.printf "%-11s %-22s %s %s worse by %+6.1f%% (bound %.0f%%) %s\n" w m.name
                (summary xa) (summary xb) (100. *. worse) (100. *. bound)
                (if ok then "PASS" else "FAIL")
          | Some xa, Some xb, None ->
              Printf.printf "%-11s %-22s %s %s\n" w m.name (summary xa) (summary xb)
          | _ ->
              all_ok := false;
              Printf.printf "%-11s %-22s missing from a set FAIL\n" w m.name)
        spec.e2e;
      List.iter
        (fun m ->
          match (Hashtbl.find_opt a (w, m.name), Hashtbl.find_opt b (w, m.name)) with
          | Some xa, Some xb ->
              Printf.printf "%-11s %-22s %s %s\n" w m.name (summary xa) (summary xb)
          | _ -> ())
        spec.layers)
    spec.workloads;
  !all_ok
