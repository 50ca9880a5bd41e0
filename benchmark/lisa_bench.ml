(* The LISA benchmark.  See README.md.

     lisa_bench.exe --workload W --seed N [--seconds S] [--trace 0|1]
     lisa_bench.exe --smoke [--spec BENCHMARK.json]
     lisa_bench.exe --compare A.tsv B.tsv [--spec BENCHMARK.json]

   The last line of a workload run is its JSON result; every line before
   it is one figure ("name value unit"), a FAIL, or a note.  The exit
   code is 1 when any verdict was wrong. *)

open Lisa_bench_lib

let usage () =
  prerr_string
    "usage: lisa_bench.exe --workload W --seed N [--seconds S] [--trace 0|1]\n\
    \       lisa_bench.exe --smoke [--spec BENCHMARK.json]\n\
    \       lisa_bench.exe --compare A.tsv B.tsv [--spec BENCHMARK.json]\n";
  prerr_string
    ("workloads: "
    ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)
    ^ "\n");
  exit 2

(* a hung child must not outlive the run *)
let time_cap_s = 170

let on_signal signal =
  Sys.set_signal signal
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "lisa_bench: interrupted, stopping children";
         exit 3))

let run_workload name ~seed ~seconds ~trace =
  match List.find_opt (fun w -> w.Workloads.name = name) Workloads.all with
  | None -> usage ()
  | Some w ->
      List.iter on_signal [ Sys.sigalrm; Sys.sigint; Sys.sigterm ];
      ignore (Unix.alarm time_cap_s);
      let r =
        Workloads.run w
          { Workloads.seed; seconds; trace; scale = None; min_reps = 3 }
      in
      Report.print_figures r;
      let line, ok = Report.result_line ~trace r in
      print_endline line;
      exit (if ok then 0 else 1)

(* every workload on the 1x corpus for a fraction of a second, traced,
   with the schema and every verdict checked *)
let smoke ~spec =
  let problems = ref (Option.fold ~none:[] ~some:Report.spec_mismatches spec) in
  List.iter
    (fun (w : Workloads.workload) ->
      let t0 = Unix.gettimeofday () in
      let r =
        Workloads.run w
          {
            Workloads.seed = 42;
            seconds = 0.25;
            trace = true;
            scale = Some 1;
            min_reps = 1;
          }
      in
      let fail what = problems := (w.name ^ ": " ^ what) :: !problems in
      List.iter fail (List.rev r.Workloads.problems);
      List.iter
        (fun trace ->
          let _, ok = Report.result_line ~trace r in
          if not ok then fail (Printf.sprintf "result line (trace %b) is not correct" trace))
        [ false; true ];
      List.iter
        (fun (n, v) -> if not (v > 0.) then fail (Printf.sprintf "%s = %g" n v))
        r.Workloads.e2e;
      Printf.printf "smoke %-10s %d verdicts checked, %d wrong (%.1fs)\n" w.name
        r.Workloads.attempted r.Workloads.failed
        (Unix.gettimeofday () -. t0))
    Workloads.all;
  List.iter (fun p -> Printf.printf "FAIL: %s\n" p) (List.rev !problems);
  exit (if !problems = [] then 0 else 1)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Proc.kill_all;
  match List.tl (Array.to_list Sys.argv) with
  | "--child" :: role :: args -> Workloads.child role args
  | args ->
      let workload = ref None and seed = ref None and seconds = ref 10.
      and trace = ref false and spec = ref None and mode = ref `Run in
      let rec parse = function
        | [] -> ()
        | "--workload" :: w :: rest -> workload := Some w; parse rest
        | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
        | "--seconds" :: s :: rest -> (
            match float_of_string_opt s with
            | Some s when s > 0. -> seconds := s; parse rest
            | _ -> usage ())
        | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
        | "--trace" :: rest -> trace := true; parse rest
        | "--spec" :: f :: rest -> spec := Some f; parse rest
        | "--smoke" :: rest -> mode := `Smoke; parse rest
        | "--compare" :: a :: b :: rest -> mode := `Compare (a, b); parse rest
        | _ -> usage ()
      in
      parse args;
      let load_spec () = Report.load_spec (Option.value !spec ~default:"BENCHMARK.json") in
      match (!mode, !workload, !seed) with
      | `Run, Some w, Some seed -> run_workload w ~seed ~seconds:!seconds ~trace:!trace
      | `Smoke, None, _ -> smoke ~spec:(Option.map Report.load_spec !spec)
      | `Compare (a, b), None, _ ->
          exit (if Report.compare ~spec:(load_spec ()) a b then 0 else 1)
      | _ -> usage ()
