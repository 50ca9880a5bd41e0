(** Versioned, digest-checked snapshots: header line + marshalled
    payload, temp-file + rename writes, and a loader that answers
    [Error reason] for every way a file can be wrong — never an
    exception, never a crash on garbage bytes (the MD5 check runs
    before [Marshal.from_string] ever sees the payload). *)

let magic = "LISA-SNAP"

let format_version = 1

let save ~(path : string) ~(kind : string) (payload : 'a) : (unit, string) result
    =
  try
    (* no sharing: equal payloads always write equal bytes, whatever
       physical sharing their values happened to have *)
    let body = Marshal.to_string payload [ Marshal.No_sharing ] in
    let digest = Digest.to_hex (Digest.string body) in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Printf.fprintf oc "%s %d %s %s %d\n" magic format_version kind digest
          (String.length body);
        output_string oc body);
    Sys.rename tmp path;
    Ok ()
  with
  | Sys_error e -> Error e
  | e -> Error (Printexc.to_string e)

let load ~(path : string) ~(kind : string) : ('a, string) result =
  if not (Sys.file_exists path) then Error "missing"
  else
    match open_in_bin path with
    | exception Sys_error e -> Error e
    | ic -> (
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        match input_line ic with
        | exception End_of_file -> Error "empty file"
        | header -> (
            match String.split_on_char ' ' header with
            | [ m; v; k; digest; len ] -> (
                if m <> magic then Error "bad magic"
                else
                  match (int_of_string_opt v, int_of_string_opt len) with
                  | None, _ | _, None -> Error "unparseable header"
                  | Some v, _ when v <> format_version -> Error "version mismatch"
                  | _, Some len when len < 0 -> Error "unparseable header"
                  | _, Some len -> (
                      if k <> kind then Error "kind mismatch"
                      else
                        match really_input_string ic len with
                        | exception End_of_file -> Error "truncated payload"
                        | body ->
                            if Digest.to_hex (Digest.string body) <> digest then
                              Error "digest mismatch"
                            else (
                              (* digest-verified bytes we wrote ourselves:
                                 Marshal is safe, but belt and braces *)
                              try Ok (Marshal.from_string body 0)
                              with e -> Error (Printexc.to_string e))))
            | _ -> Error "unparseable header"))
