(* The dpserved child process: start it with the pinned config, time
   exec -> "listening" line, read its peak RSS, and stop it (SIGTERM
   drain, SIGKILL if the drain does not finish). *)

type t = { pid : int; port : int; out : Unix.file_descr }

exception Failed of string

(* The end of the daemon's stderr, for the failure message: the run
   directory holding the log is removed when the run ends. *)
let failed ~log what =
  let text = try Report.read_file log with Sys_error _ -> "" in
  let n = String.length text in
  raise (Failed (what ^ "; its stderr ends: " ^ String.sub text (max 0 (n - 2000)) (min n 2000)))

(* Read stdout lines until the listening line; [deadline_ns] bounds
   the wait (a preloading restart verifies its whole store first). *)
let await_port ~pid fd ~log ~deadline_ns =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let prefix = "dpserved: listening on " in
  let rec line_loop () =
    let text = Buffer.contents buf in
    match String.index_opt text '\n' with
    | Some i ->
      let line = String.sub text 0 i in
      Buffer.clear buf;
      Buffer.add_string buf (String.sub text (i + 1) (String.length text - i - 1));
      if Load.starts_with ~prefix line then
        match String.rindex_opt line ':' with
        | Some j -> int_of_string (String.sub line (j + 1) (String.length line - j - 1))
        | None -> failed ~log ("unparseable listening line: " ^ line)
      else line_loop ()
    | None ->
      let left = Load.secs (Int64.sub deadline_ns (Load.now ())) in
      if left <= 0. then failed ~log (Printf.sprintf "dpserved (pid %d) never announced a port" pid);
      (match Unix.select [ fd ] [] [] left with
       | [], _, _ -> ()
       | _ -> (
         match Unix.read fd chunk 0 (Bytes.length chunk) with
         | 0 -> failed ~log "dpserved exited at startup"
         | n -> Buffer.add_subbytes buf chunk 0 n)
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      line_loop ()
  in
  line_loop ()

let reap pid ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

let kill_quietly pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* SIGTERM asks for the graceful drain; a daemon still running half a
   second later is killed. (On the commit this benchmark was written
   against, a daemon that has served requests does not act on a lone
   SIGTERM: its event loop sleeps in select with no timeout and the
   signal is taken by another Domain's thread.) *)
let stop ?(graceful = true) t =
  if not (graceful && (kill_quietly t.pid Sys.sigterm; reap t.pid ~timeout_s:0.5)) then begin
    kill_quietly t.pid Sys.sigkill;
    ignore (reap t.pid ~timeout_s:20.)
  end;
  try Unix.close t.out with Unix.Unix_error _ -> ()

(* Start dpserved; returns the handle and the seconds from exec to the
   listening line. *)
let start ~exe ~args ~log =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let t0 = Load.now () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w err in
  Unix.close w;
  Unix.close err;
  match await_port ~pid r ~log ~deadline_ns:(Int64.add t0 120_000_000_000L) with
  | port -> ({ pid; port; out = r }, Load.secs (Int64.sub (Load.now ()) t0))
  | exception e ->
    stop { pid; port = 0; out = r };
    raise e

(* VmHWM: the peak resident set of the process so far, in MiB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when Load.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> raise (Failed "no VmHWM in /proc status")
      in
      go ())

(* Start [starts] times; every start but the last is killed at once
   (it holds nothing to drain). Returns the last (serving) handle and
   the median setup time. *)
let start_measured ~exe ~args ~log ~starts ~before_each =
  let rec go k times =
    before_each ();
    let d, s = start ~exe ~args ~log in
    if k = 1 then (d, s :: times)
    else begin
      stop ~graceful:false d;
      go (k - 1) (s :: times)
    end
  in
  let d, times = go starts [] in
  (d, Quant.median (Array.of_list times))
