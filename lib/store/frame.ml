(* Crash-safe checksummed disk frames; see frame.mli. *)

type error =
  | Corrupt of string
  | Bad_magic
  | Stale_version of { got : int }
  | Io of string

let error_to_string = function
  | Corrupt msg -> "corrupt: " ^ msg
  | Bad_magic -> "bad magic (not a dpstore frame)"
  | Stale_version { got } -> Printf.sprintf "stale format version %d" got
  | Io msg -> "io: " ^ msg

let magic = "DPST"

let add_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let read_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let encode ~version payload =
  let buf = Buffer.create (String.length payload + 28) in
  Buffer.add_string buf magic;
  add_u32 buf version;
  add_u32 buf (String.length payload);
  Buffer.add_string buf payload;
  let body = Buffer.contents buf in
  body ^ Digest.string body

(* Check order matters for typed errors: truncation before magic
   (nothing shorter than a header is a frame of any kind), magic before
   version (a foreign file should say so, not report a nonsense
   version), version before checksum (a future-format entry must read
   as [Stale_version] even though its digest — computed by the future
   writer over different bytes — would also mismatch). *)
let decode ~version raw =
  let total = String.length raw in
  if total < 28 then Error (Corrupt "truncated frame")
  else if String.sub raw 0 4 <> magic then Error Bad_magic
  else
    let got = read_u32 raw 4 in
    if got <> version then Error (Stale_version { got })
    else
      let len = read_u32 raw 8 in
      if 12 + len + 16 <> total then Error (Corrupt "frame length mismatch")
      else
        let body = String.sub raw 0 (12 + len) in
        let digest = String.sub raw (12 + len) 16 in
        if not (String.equal (Digest.string body) digest) then
          Error (Corrupt "checksum mismatch")
        else Ok (String.sub raw 12 len)

let io_error ctx = function
  | Unix.Unix_error (e, _, _) -> Error (Io (ctx ^ ": " ^ Unix.error_message e))
  | Sys_error m -> Error (Io (ctx ^ ": " ^ m))
  | exn -> raise exn

let is_temp name =
  (* A killed writer leaves [<entry>.tmp.<pid>]; anything carrying the
     temp infix was never renamed into place and is dead weight. *)
  let infix = ".tmp." in
  let ln = String.length name and li = String.length infix in
  let rec scan i = i + li <= ln && (String.sub name i li = infix || scan (i + 1)) in
  scan 0

let fsync_dir dirname =
  match Unix.openfile dirname [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Io ("fsync dir: " ^ Unix.error_message e))
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.fsync fd with
        | () -> Ok ()
        | exception Unix.Unix_error (e, _, _) ->
          Error (Io ("fsync dir: " ^ Unix.error_message e)))

let write ~version ~path ~payload =
  let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  let frame = encode ~version payload in
  match
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc frame;
        Out_channel.flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc))
  with
  | exception exn ->
    (try Sys.remove tmp with Sys_error _ -> ());
    io_error "write" exn
  | () -> (
    match Unix.rename tmp path with
    | exception Unix.Unix_error (e, _, _) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error (Io ("rename: " ^ Unix.error_message e))
    | () -> fsync_dir (Filename.dirname path))

let read ~version ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | raw -> decode ~version raw
  | exception Sys_error m -> Error (Io ("read: " ^ m))
