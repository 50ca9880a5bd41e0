(** Child processes.  Every measured program run is this executable
    re-executed in a fresh process, so each run starts as cold as a new
    [lisa engine], [lisa ci] or [lisa serve]; children report back on
    stdout, one space-separated record per line. *)

let now = Unix.gettimeofday

type child = { pid : int; out : in_channel; spawned : float }

let live : int list ref = ref []

let spawn (args : string list) : child =
  let r, w = Unix.pipe ~cloexec:true () in
  let spawned = now () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  live := pid :: !live;
  { pid; out = Unix.in_channel_of_descr r; spawned }

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(** Wait for the child; a nonzero exit is an error. *)
let reap (c : child) : unit =
  let status = waitpid c.pid in
  live := List.filter (( <> ) c.pid) !live;
  close_in_noerr c.out;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "child %d exited with %d" c.pid n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      failwith (Printf.sprintf "child %d killed by signal %d" c.pid n)

(** Every record the child writes, split into fields, then reap it. *)
let records (c : child) : string list list =
  let rec go acc =
    match input_line c.out with
    | line -> go (String.split_on_char ' ' line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let rs = go [] in
  reap c;
  rs

(** Kill and wait for every child still running. *)
let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live;
  List.iter (fun pid -> try ignore (waitpid pid) with Unix.Unix_error _ -> ()) !live;
  live := []

(** Peak resident set of this process (VmHWM), in KiB. *)
let peak_rss_kb () : int =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" Fun.id
    | _ -> go ()
  in
  go ()

(** The ids in a record field: comma-separated, ["-"] for none. *)
let field_ids (s : string) : string list =
  if s = "-" then [] else String.split_on_char ',' s
