(* The vision of the paper's introduction: "every failure, once fixed,
   automatically becomes an executable contract that shields the system
   from ever repeating the same mistake."

   This example replays the full version history of every corpus case
   through the gated CI pipeline (tests + accumulated rulebook) and shows
   each regression being BLOCKED at commit time instead of shipping.

   Run with: dune exec examples/ci_gate.exe [case-id] *)

let () =
  let cases =
    match Array.to_list Sys.argv with
    | _ :: case_id :: _ -> (
        match Corpus.Registry.find Corpus.Registry.builtin case_id with
        | Some c -> [ c ]
        | None ->
            Fmt.epr "unknown case %s@." case_id;
            exit 1)
    | _ -> Corpus.Registry.builtin.cases
  in
  let shipped_regressions = ref 0 in
  let blocked_regressions = ref 0 in
  List.iter
    (fun (c : Corpus.Case.t) ->
      let run = Lisa.Ci.replay c in
      print_endline (Lisa.Ci.run_to_string run);
      print_newline ();
      List.iter
        (fun stage ->
          if List.mem stage (Lisa.Ci.blocked_stages run) then incr blocked_regressions
          else incr shipped_regressions)
        c.Corpus.Case.regression_stages)
    cases;
  Fmt.pr "regressed commits blocked before release: %d@." !blocked_regressions;
  Fmt.pr "regressed commits that would have shipped: %d@." !shipped_regressions;
  if !shipped_regressions = 0 then
    Fmt.pr "@.every \"once bitten\" left a contract; none bit twice.@."
