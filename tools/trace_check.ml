(* trace_check FILE [REQUIRED_NAME ...]

   Validates a Chrome-trace JSON file produced by `--trace`: the file
   must parse (with Serve.Jsonu, the serve protocol's reader) as an
   array of event objects, contain at least one complete ("ph":"X")
   span, and carry an event for every required name given on the
   command line.  A required name written as `counter:NAME` must be the
   name of a counter ("ph":"C") event.  Exit 0 on success, 1 with a
   message otherwise.  The Makefile's *TRACE_SPANS lists are the
   required names of each trace smoke. *)

module J = Serve.Jsonu

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("trace_check: " ^ s); exit 1) fmt

let field key ev = Option.bind (J.member key ev) J.to_str

let () =
  match Array.to_list Sys.argv with
  | _ :: path :: required ->
      let body = try read_file path with Sys_error e -> fail "cannot read %s: %s" path e in
      let events =
        match J.parse body with
        | Ok (J.List evs) -> evs
        | Ok _ -> fail "%s is not a JSON array of events" path
        | Error e -> fail "%s is not valid JSON: %s" path e
      in
      let has ?ph name =
        List.exists
          (fun ev ->
            field "name" ev = Some name
            && match ph with None -> true | Some ph -> field "ph" ev = Some ph)
          events
      in
      if not (List.exists (fun ev -> field "ph" ev = Some "X") events) then
        fail "%s has no complete (\"ph\":\"X\") spans" path;
      let missing =
        List.filter
          (fun name ->
            match String.split_on_char ':' name with
            | [ "counter"; n ] -> not (has ~ph:"C" n)
            | _ -> not (has name))
          required
      in
      if missing <> [] then
        fail "%s is missing event name(s): %s" path (String.concat ", " missing);
      Printf.printf "trace_check: %s OK (%d required name(s) present)\n" path
        (List.length required)
  | _ -> fail "usage: trace_check FILE [REQUIRED_NAME ...]"
