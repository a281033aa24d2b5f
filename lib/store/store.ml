(* The persistent artifact store; see store.mli. *)

module Frame = Frame
module J = Obs.Json
module S = Minimax.Serve
module I = Check.Invariants
module E = Resilience.Solver_error
module F = Resilience.Fault
module Request = Engine.Request
module Compiled = Engine.Compiled

type error =
  | Corrupt of string
  | Bad_magic
  | Stale_version of { got : int }
  | Uncertified of { rule : string }
  | Io of string

let error_to_string = function
  | Corrupt msg -> "corrupt: " ^ msg
  | Bad_magic -> "bad magic (not a dpstore frame)"
  | Stale_version { got } -> Printf.sprintf "stale format version %d" got
  | Uncertified { rule } -> Printf.sprintf "uncertified: %s failed on replay" rule
  | Io msg -> "io: " ^ msg

type t = {
  dir : string;
  readonly : bool;
  mu : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable writes : int;
}

let entry_suffix = ".dpa"
(* The artifact payload's own version, apart from the session
   checkpoints'. 2: every release sits on a geometric rung and carries
   a derivability certificate; version-1 entries (which may hold the
   retired tailored rung) read as [Stale_version] and recompile. *)
let format_version = 2

let dir t = t.dir
let readonly t = t.readonly

(* The framing itself (magic, version, payload length, payload, MD5
   trailer; atomic temp-file writes) lives in {!Frame}, shared with
   the session ledger checkpoints. The store only maps its errors. *)
let of_frame_error = function
  | Frame.Corrupt m -> Corrupt m
  | Frame.Bad_magic -> Bad_magic
  | Frame.Stale_version { got } -> Stale_version { got }
  | Frame.Io m -> Io m

let payload_of_frame raw =
  Result.map_error of_frame_error (Frame.decode ~version:format_version raw)

(* ------------------------------------------------------------------ *)
(* Payload JSON                                                        *)
(* ------------------------------------------------------------------ *)

let rung_to_string = S.rung_to_string

(* "tailored" is not read back: no release carries the retired rung,
   and entries written before its retirement are refused by version. *)
let rung_of_string = function
  | "geometric+remap" -> Some S.Geometric_remap
  | "geometric" -> Some S.Geometric_raw
  | _ -> None

let kind_of_string = function
  | "deadline" -> Some E.Deadline
  | "pivots" -> Some E.Pivots
  | "bits" -> Some E.Bits
  | "injected" -> Some E.Injected
  | _ -> None

let reason_to_json = function
  | S.Solver e -> J.Obj (("kind", J.Str "solver") :: (match E.to_json e with
      | J.Obj fields -> fields
      | other -> [ ("error", other) ]))
  | S.Uncertified rule -> J.Obj [ ("kind", J.Str "uncertified"); ("rule", J.Str rule) ]

let attempt_to_json (a : S.attempt) =
  J.Obj
    [
      ("rung", J.Str (rung_to_string a.S.attempted));
      ("reason", reason_to_json a.S.reason);
    ]

let pairs_to_json ps = J.List (List.map (fun (k, v) -> J.List [ J.Str k; J.Str v ]) ps)

let certificate_to_json (c : I.certificate) =
  J.Obj
    [
      ("rule", J.Str c.I.cert_rule);
      ("params", pairs_to_json c.I.params);
      ("constraints_checked", J.Int c.I.constraints_checked);
      ("tight", pairs_to_json c.I.tight);
    ]

let provenance_to_json (p : S.provenance) =
  J.Obj
    [
      ("rung", J.Str (rung_to_string p.S.rung));
      ("alpha", J.rat p.S.alpha);
      ("n", J.Int p.S.n);
      ("attempts", J.List (List.map attempt_to_json p.S.attempts));
      ("pivots_spent", J.Int p.S.pivots_spent);
      ("peak_bits", J.Int p.S.peak_bits);
      ("checks", J.List (List.map (fun c -> J.Str c) p.S.checks));
    ]

(* The canonical key is itself a [k=v;...] record over the canonical
   consumer spellings, so the payload's request fields come from
   parsing it — the only representation a [Compiled.t] carries. *)
let request_of_key key =
  let fields = String.split_on_char ';' key in
  let lookup name =
    List.find_map
      (fun f ->
        match String.index_opt f '=' with
        | Some i when String.sub f 0 i = name ->
          Some (String.sub f (i + 1) (String.length f - i - 1))
        | _ -> None)
      fields
  in
  match (lookup "n", lookup "a", lookup "l", lookup "s") with
  | Some n, Some a, Some l, Some s -> (
    match (int_of_string_opt n, Rat.of_string_opt a) with
    | Some n, Some alpha -> (
      match (Request.loss_spec_of_string l, Request.side_spec_of_string s) with
      | Ok loss, Ok side -> (
        match Request.make ~n ~alpha ~loss ~side () with
        | Ok req ->
          if String.equal (Request.canonical_key req) key then Ok req
          else Error (Corrupt "key is not canonical")
        | Error m -> Error (Corrupt ("key names an invalid request: " ^ m)))
      | Error m, _ | _, Error m -> Error (Corrupt ("unparseable key spec: " ^ m)))
    | _ -> Error (Corrupt "unparseable key numerics"))
  | _ -> Error (Corrupt "key missing fields")

let matrix_to_json m =
  J.List
    (Array.to_list
       (Array.map (fun row -> J.List (Array.to_list (Array.map J.rat row))) m))

let payload_of_artifact (c : Compiled.t) =
  let served = c.Compiled.served in
  J.to_string
    (J.Obj
       [
         ("format", J.Str "dpstore");
         ("key", J.Str c.Compiled.key);
         ("loss", J.rat served.S.loss);
         ("provenance", provenance_to_json served.S.provenance);
         ("matrix", matrix_to_json (Mech.Mechanism.matrix served.S.mechanism));
         ("certificates", J.List (List.map certificate_to_json c.Compiled.certificates));
       ])

(* --- decoding ----------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name json =
  match J.member name json with
  | Some v -> Ok v
  | None -> Error (Corrupt ("payload missing " ^ name))

let str_field name json =
  let* v = field name json in
  match J.to_str_opt v with
  | Some s -> Ok s
  | None -> Error (Corrupt ("payload field " ^ name ^ " is not a string"))

let int_field name json =
  let* v = field name json in
  match J.to_int_opt v with
  | Some i -> Ok i
  | None -> Error (Corrupt ("payload field " ^ name ^ " is not an integer"))

let rat_field name json =
  let* s = str_field name json in
  match Rat.of_string_opt s with
  | Some r -> Ok r
  | None -> Error (Corrupt ("payload field " ^ name ^ " is not a rational"))

let list_field name json =
  let* v = field name json in
  match v with
  | J.List l -> Ok l
  | _ -> Error (Corrupt ("payload field " ^ name ^ " is not a list"))

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let pairs_of_json name v =
  match v with
  | J.List l ->
    map_result
      (function
        | J.List [ J.Str k; J.Str v ] -> Ok (k, v)
        | _ -> Error (Corrupt (name ^ " entry is not a [key,value] pair")))
      l
  | _ -> Error (Corrupt (name ^ " is not a list"))

let certificate_of_json json =
  let* cert_rule = str_field "rule" json in
  let* params = field "params" json in
  let* params = pairs_of_json "params" params in
  let* constraints_checked = int_field "constraints_checked" json in
  let* tight = field "tight" json in
  let* tight = pairs_of_json "tight" tight in
  Ok { I.cert_rule; params; constraints_checked; tight }

let rung_field name json =
  let* s = str_field name json in
  match rung_of_string s with
  | Some r -> Ok r
  | None -> Error (Corrupt ("unknown rung " ^ s))

let reason_of_json json =
  let* kind = str_field "kind" json in
  match kind with
  | "uncertified" ->
    let* rule = str_field "rule" json in
    Ok (S.Uncertified rule)
  | "solver" -> (
    let* verdict = str_field "verdict" json in
    match verdict with
    | "infeasible" -> Ok (S.Solver E.Infeasible)
    | "unbounded" -> Ok (S.Solver E.Unbounded)
    | "exhausted" -> (
      let* site = str_field "site" json in
      let* kind = str_field "kind" json in
      let* pivots = int_field "pivots" json in
      let* peak_bits = int_field "peak_bits" json in
      match kind_of_string kind with
      | Some kind -> Ok (S.Solver (E.Exhausted { site; kind; pivots; peak_bits }))
      | None -> Error (Corrupt ("unknown budget kind " ^ kind)))
    | v -> Error (Corrupt ("unknown solver verdict " ^ v)))
  | k -> Error (Corrupt ("unknown attempt reason kind " ^ k))

let attempt_of_json json =
  let* attempted = rung_field "rung" json in
  let* reason = field "reason" json in
  let* reason = reason_of_json reason in
  Ok { S.attempted; reason }

let provenance_of_json json =
  let* rung = rung_field "rung" json in
  let* alpha = rat_field "alpha" json in
  let* n = int_field "n" json in
  let* attempts = list_field "attempts" json in
  let* attempts = map_result attempt_of_json attempts in
  let* pivots_spent = int_field "pivots_spent" json in
  let* peak_bits = int_field "peak_bits" json in
  let* checks = list_field "checks" json in
  let* checks =
    map_result
      (fun c ->
        match J.to_str_opt c with
        | Some s -> Ok s
        | None -> Error (Corrupt "checks entry is not a string"))
      checks
  in
  Ok { S.rung; alpha; n; attempts; pivots_spent; peak_bits; checks }

let matrix_of_json json =
  let* rows = list_field "matrix" json in
  let* rows =
    map_result
      (function
        | J.List cells ->
          let* cells =
            map_result
              (fun c ->
                match Option.bind (J.to_str_opt c) Rat.of_string_opt with
                | Some r -> Ok r
                | None -> Error (Corrupt "matrix cell is not a rational"))
              cells
          in
          Ok (Array.of_list cells)
        | _ -> Error (Corrupt "matrix row is not a list"))
      rows
  in
  Ok (Array.of_list rows)

(* ------------------------------------------------------------------ *)
(* Verify-on-load: trust the math, not the file                        *)
(* ------------------------------------------------------------------ *)

(* A well-framed payload earns the right to be served by replaying the
   whole audit: the key must be canonical and reproduce the filename,
   the matrix must be square of the key's size and re-certify through
   [Compiled.of_matrix] (which runs [Check.Invariants] afresh), the
   stored certificates must equal the freshly earned ones, and the
   stored loss must equal the minimax loss recomputed from the consumer
   the key names — all exact in ℚ, so equality is equality. *)
let verify_payload ~expect_key payload =
  match J.of_string payload with
  | Error m -> Error (Corrupt ("unparseable payload: " ^ m))
  | Ok json -> (
    let* fmt = str_field "format" json in
    let* () = if fmt = "dpstore" then Ok () else Error (Corrupt "not a dpstore payload") in
    let* key = str_field "key" json in
    let* () =
      match expect_key with
      | Some k when not (String.equal k key) ->
        Error (Corrupt "entry key does not match its filename")
      | _ -> Ok ()
    in
    let* req = request_of_key key in
    let* loss = rat_field "loss" json in
    let* prov = field "provenance" json in
    let* provenance = provenance_of_json prov in
    let* matrix = matrix_of_json json in
    let* () =
      let size = req.Request.n + 1 in
      if Array.length matrix = size && Array.for_all (fun row -> Array.length row = size) matrix
      then Ok ()
      else Error (Corrupt "matrix size does not match the key")
    in
    let* certs = list_field "certificates" json in
    let* certificates = map_result certificate_of_json certs in
    match F.trip "store.verify" with
    | exception F.Injected { site = "store.verify"; _ } ->
      Error (Uncertified { rule = "injected" })
    | () -> (
      match Compiled.of_matrix ~key ~alpha:req.Request.alpha ~loss ~provenance matrix with
      | exception Compiled.Uncertified { rule; _ } -> Error (Uncertified { rule })
      | c ->
        if c.Compiled.certificates <> certificates then
          Error (Corrupt "stored certificates disagree with replayed ones")
        else
          let recomputed =
            Minimax.Consumer.minimax_loss (Request.consumer req) c.Compiled.served.S.mechanism
          in
          if not (Rat.equal recomputed loss) then Error (Uncertified { rule = "minimax-loss" })
          else Ok (key, c)))

(* ------------------------------------------------------------------ *)
(* Filesystem                                                          *)
(* ------------------------------------------------------------------ *)

let basename_of_key key = Digest.to_hex (Digest.string key) ^ entry_suffix
let entry_path t ~key = Filename.concat t.dir (basename_of_key key)

let sweep_temps dirname =
  match Sys.readdir dirname with
  | exception Sys_error m -> Error (Io ("sweep: " ^ m))
  | names ->
    Array.iter
      (fun name ->
        if Frame.is_temp name then
          try Sys.remove (Filename.concat dirname name)
          with Sys_error _ -> () (* racing sweeper already won *))
      names;
    Ok ()

let validate_dir ~readonly dirname =
  if Sys.file_exists dirname then
    if Sys.is_directory dirname then Ok () else Error (Io (dirname ^ " is not a directory"))
  else if readonly then Error (Io (dirname ^ " does not exist (read-only store)"))
  else
    match Unix.mkdir dirname 0o755 with
    | () -> Ok ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      Error (Io ("mkdir " ^ dirname ^ ": " ^ Unix.error_message e))

let open_dir ?(readonly = false) dirname =
  let* () = validate_dir ~readonly dirname in
  let* () = if readonly then Ok () else sweep_temps dirname in
  Ok
    {
      dir = dirname;
      readonly;
      mu = Mutex.create ();
      hits = 0;
      misses = 0;
      corrupt = 0;
      writes = 0;
    }

let reopen t =
  Mutex.protect t.mu (fun () ->
      let* () = validate_dir ~readonly:t.readonly t.dir in
      if t.readonly then Ok () else sweep_temps t.dir)

(* ------------------------------------------------------------------ *)
(* Entries                                                             *)
(* ------------------------------------------------------------------ *)

let read_frame path =
  match F.trip "store.read" with
  | exception F.Injected { site = "store.read"; _ } ->
    Error (Io "injected fault at store.read")
  | () -> (
    match In_channel.with_open_bin path In_channel.input_all with
    | raw -> Ok raw
    | exception Sys_error m -> Error (Io ("read: " ^ m)))

(* Load one entry file through frame check + verify. [expect_key] is
   the probe's key (None when walking the directory), and the payload
   key must reproduce the filename either way. *)
let load_file ~expect_key path =
  let* raw = read_frame path in
  let* payload = payload_of_frame raw in
  let* (key, c) = verify_payload ~expect_key payload in
  if not (String.equal (basename_of_key key) (Filename.basename path)) then
    Error (Corrupt "entry key does not match its filename")
  else Ok (key, c)

let count_hit t =
  Obs.incr "store.hits";
  t.hits <- t.hits + 1

let count_miss t =
  Obs.incr "store.misses";
  t.misses <- t.misses + 1

let count_corrupt t =
  Obs.incr "store.corrupt";
  t.corrupt <- t.corrupt + 1

let load t ~key =
  Mutex.protect t.mu (fun () ->
      let path = entry_path t ~key in
      if not (Sys.file_exists path) then begin
        count_miss t;
        Ok None
      end
      else
        match load_file ~expect_key:(Some key) path with
        | Ok (_, c) ->
          count_hit t;
          Ok (Some c)
        | Error e ->
          count_corrupt t;
          Error e)

let write t (c : Compiled.t) =
  Mutex.protect t.mu (fun () ->
      if t.readonly then Error (Io "store is read-only")
      else if c.Compiled.served.S.provenance.S.attempts <> [] then
        (* A degraded release records this process's budget pressure,
           not a property of the consumer; persisting it would let one
           starved process poison every future warm boot. *)
        Ok ()
      else
        match F.trip "store.write" with
        | exception F.Injected { site = "store.write"; _ } ->
          Error (Io "injected fault at store.write")
        | () -> (
          let path = entry_path t ~key:c.Compiled.key in
          match Frame.write ~version:format_version ~path ~payload:(payload_of_artifact c) with
          | Error e -> Error (of_frame_error e)
          | Ok () ->
            Obs.incr "store.writes";
            t.writes <- t.writes + 1;
            Ok ()))

let entry_names dirname =
  match Sys.readdir dirname with
  | exception Sys_error m -> Error (Io ("readdir: " ^ m))
  | names ->
    let entries =
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n entry_suffix)
      |> List.sort String.compare
    in
    Ok entries

let keys t =
  Mutex.protect t.mu (fun () ->
      let* names = entry_names t.dir in
      let keys =
        List.filter_map
          (fun name ->
            let path = Filename.concat t.dir name in
            match
              let* raw = read_frame path in
              let* payload = payload_of_frame raw in
              match J.of_string payload with
              | Error m -> Error (Corrupt ("unparseable payload: " ^ m))
              | Ok json -> str_field "key" json
            with
            | Ok key -> Some key
            | Error _ -> None)
          names
      in
      Ok (List.sort String.compare keys))

let load_all t =
  Mutex.protect t.mu (fun () ->
      match entry_names t.dir with
      | Error e -> ([], [ (t.dir, e) ])
      | Ok names ->
        let loaded, refused =
          List.fold_left
            (fun (loaded, refused) name ->
              let path = Filename.concat t.dir name in
              match load_file ~expect_key:None path with
              | Ok (key, c) ->
                count_hit t;
                ((key, c) :: loaded, refused)
              | Error e ->
                count_corrupt t;
                (loaded, (name, e) :: refused))
            ([], []) names
        in
        let loaded =
          List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) loaded
        in
        (List.map snd loaded, List.rev refused))

(* ------------------------------------------------------------------ *)
(* Accounting and engine integration                                   *)
(* ------------------------------------------------------------------ *)

type stats = { hits : int; misses : int; corrupt : int; writes : int }

let stats t =
  Mutex.protect t.mu (fun () ->
      { hits = t.hits; misses = t.misses; corrupt = t.corrupt; writes = t.writes })

(* The store as the engine's second tier. Both callbacks are total by
   construction — every typed error is swallowed into a miss (probe)
   or dropped (store) after being counted — which is exactly the
   contract [Engine.tier] documents. *)
let tier t =
  {
    Engine.probe =
      (fun req ->
        let t0 = Obs.now_ns () in
        let key = Request.canonical_key req in
        let result =
          match load t ~key with Ok c -> c | Error _ -> None
        in
        Obs.observe_latency_ns "store.probe.latency" (Int64.sub (Obs.now_ns ()) t0);
        result);
    store = (fun c -> match write t c with Ok () -> () | Error _ -> ());
  }
