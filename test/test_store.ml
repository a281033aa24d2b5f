(* Tests for the persistent artifact store: frame round-trips, the
   verify-on-load wall (every corruption class maps to its exact typed
   error), crash-write hygiene, and the engine tier integration that
   makes warm restarts byte-identical to cold ones. *)

module Rq = Engine.Request
module Co = Engine.Compiled
module M = Mech.Mechanism
module S = Minimax.Serve
module B = Resilience.Budget
module F = Resilience.Fault

let q = Rat.of_ints

let req ?(input = 0) ?(count = 1) ?(n = 4) ?(alpha = q 1 2) ?(loss = Rq.Absolute)
    ?(side = Rq.Full) () =
  match Rq.make ~input ~count ~n ~alpha ~loss ~side () with
  | Ok r -> r
  | Error m -> Alcotest.failf "fixture request rejected: %s" m

let compile (r : Rq.t) =
  Co.compile ~alpha:r.Rq.alpha ~key:(Rq.canonical_key r) (Rq.consumer r)

let with_store ?readonly f =
  let dir = Filename.temp_file "dpstore" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      match Store.open_dir ?readonly dir with
      | Ok s -> f dir s
      | Error e -> Alcotest.failf "open_dir: %s" (Store.error_to_string e))

let ok_write s c =
  match Store.write s c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %s" (Store.error_to_string e)

let error_name = function
  | Store.Corrupt _ -> "corrupt"
  | Store.Bad_magic -> "bad_magic"
  | Store.Stale_version _ -> "stale_version"
  | Store.Uncertified _ -> "uncertified"
  | Store.Io _ -> "io"

let check_load_error name s ~key expect =
  match Store.load s ~key with
  | Ok (Some _) -> Alcotest.failf "%s: corrupt entry was served" name
  | Ok None -> Alcotest.failf "%s: corrupt entry read as a miss" name
  | Error e -> Alcotest.(check string) name expect (error_name e)

(* --------------------------------------------------------------- *)
(* Round trips                                                      *)
(* --------------------------------------------------------------- *)

let check_artifact_equal name (a : Co.t) (b : Co.t) =
  Alcotest.(check string) (name ^ ": key") a.Co.key b.Co.key;
  Alcotest.(check bool)
    (name ^ ": matrix")
    true
    (M.matrix a.Co.served.S.mechanism = M.matrix b.Co.served.S.mechanism);
  Alcotest.(check string)
    (name ^ ": loss")
    (Rat.to_string a.Co.served.S.loss)
    (Rat.to_string b.Co.served.S.loss);
  Alcotest.(check string)
    (name ^ ": provenance")
    (S.provenance_to_string a.Co.served.S.provenance)
    (S.provenance_to_string b.Co.served.S.provenance);
  Alcotest.(check bool)
    (name ^ ": certificates")
    true
    (a.Co.certificates = b.Co.certificates)

let round_trip_cases =
  [
    ("absolute full", req ());
    ("squared n=5", req ~n:5 ~alpha:(q 1 3) ~loss:Rq.Squared ());
    ("zero-one", req ~n:3 ~alpha:(q 2 5) ~loss:Rq.Zero_one ());
    ("deadzone side", req ~n:5 ~alpha:(q 3 7) ~loss:(Rq.Deadzone 1) ~side:(Rq.At_least 2) ());
    ("capped members", req ~n:4 ~loss:(Rq.Capped 2) ~side:(Rq.Members [ 0; 2; 3 ]) ());
    ("asymmetric", req ~n:3 ~alpha:(q 1 4) ~loss:(Rq.Asymmetric (q 2 1, q 1 2)) ());
    ("single member side", req ~n:4 ~side:(Rq.Members [ 2 ]) ());
  ]

(* Property-style sweep: for a spread of consumers across every loss
   and side shape, write + load must reproduce the artifact exactly —
   same matrix, loss, provenance and certificates, in ℚ. *)
let test_round_trip () =
  with_store (fun _dir s ->
      List.iter
        (fun (name, r) ->
          let c = compile r in
          ok_write s c;
          match Store.load s ~key:c.Co.key with
          | Error e -> Alcotest.failf "%s: load: %s" name (Store.error_to_string e)
          | Ok None -> Alcotest.failf "%s: entry vanished" name
          | Ok (Some c') -> check_artifact_equal name c c')
        round_trip_cases;
      let st = Store.stats s in
      Alcotest.(check int) "writes counted" (List.length round_trip_cases) st.Store.writes;
      Alcotest.(check int) "hits counted" (List.length round_trip_cases) st.Store.hits)

let test_miss_and_keys () =
  with_store (fun _dir s ->
      (match Store.load s ~key:(Rq.canonical_key (req ())) with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "empty store served an artifact"
      | Error e -> Alcotest.failf "empty store errored: %s" (Store.error_to_string e));
      let a = compile (req ()) in
      let b = compile (req ~n:5 ~loss:Rq.Squared ()) in
      ok_write s a;
      ok_write s b;
      let expect = List.sort String.compare [ a.Co.key; b.Co.key ] in
      match Store.keys s with
      | Ok ks -> Alcotest.(check (list string)) "keys sorted" expect ks
      | Error e -> Alcotest.failf "keys: %s" (Store.error_to_string e))

(* --------------------------------------------------------------- *)
(* Golden corrupt fixtures: each corruption class → its exact error  *)
(* --------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Re-frame a (possibly tampered) payload with a valid checksum — the
   documented frame layout, reimplemented here so the test also pins
   the spec: magic, u32 BE version, u32 BE length, payload, MD5. *)
let frame ?(version = Store.format_version) payload =
  let u32 v =
    let b = Bytes.create 4 in
    Bytes.set b 0 (Char.chr ((v lsr 24) land 0xff));
    Bytes.set b 1 (Char.chr ((v lsr 16) land 0xff));
    Bytes.set b 2 (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b 3 (Char.chr (v land 0xff));
    Bytes.to_string b
  in
  let body = "DPST" ^ u32 version ^ u32 (String.length payload) ^ payload in
  body ^ Digest.string body

let payload_of raw = String.sub raw 12 (String.length raw - 28)

let test_corrupt_fixtures () =
  with_store (fun _dir s ->
      let r = req () in
      let c = compile r in
      let key = c.Co.key in
      let path = Store.entry_path s ~key in
      ok_write s c;
      let pristine = read_file path in

      (* Golden fixture 1: truncated mid-payload (torn write that
         somehow hit the final name — e.g. a copied partial file). *)
      write_file path (String.sub pristine 0 (String.length pristine / 2));
      check_load_error "truncated" s ~key "corrupt";

      (* ... even truncated inside the header. *)
      write_file path (String.sub pristine 0 10);
      check_load_error "truncated header" s ~key "corrupt";

      (* Golden fixture 2: one flipped byte in the checksum trailer. *)
      let flipped = Bytes.of_string pristine in
      let last = Bytes.length flipped - 1 in
      Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 0x01));
      write_file path (Bytes.to_string flipped);
      check_load_error "flipped checksum byte" s ~key "corrupt";

      (* ... and one flipped byte in the payload. *)
      let flipped = Bytes.of_string pristine in
      Bytes.set flipped 40 (Char.chr (Char.code (Bytes.get flipped 40) lxor 0x10));
      write_file path (Bytes.to_string flipped);
      check_load_error "flipped payload byte" s ~key "corrupt";

      (* Golden fixture 3: wrong magic — not a dpstore frame at all. *)
      write_file path ("NOPE" ^ String.sub pristine 4 (String.length pristine - 4));
      check_load_error "wrong magic" s ~key "bad_magic";

      (* Golden fixture 4: a future format version, with a checksum
         that future writer would have computed — version wins over
         digest, so the error is typed Stale_version, not Corrupt. *)
      write_file path (frame ~version:(Store.format_version + 1) (payload_of pristine));
      (match Store.load s ~key with
      | Error (Store.Stale_version { got }) ->
        Alcotest.(check int) "future version surfaced" (Store.format_version + 1) got
      | Error e -> Alcotest.failf "future version: %s" (Store.error_to_string e)
      | Ok _ -> Alcotest.fail "future version entry was accepted");

      (* Tampered payload behind a valid checksum: a well-framed lie.
         Swapping the stored loss breaks the minimax-loss replay. *)
      let lied =
        Str.global_replace
          (Str.regexp_string "\"loss\":\"36/43\"")
          "\"loss\":\"1/2\"" (payload_of pristine)
      in
      Alcotest.(check bool) "fixture tampers the loss" true (lied <> payload_of pristine);
      write_file path (frame lied);
      check_load_error "tampered loss" s ~key "uncertified";

      (* A mechanism edit behind a valid checksum fails invariant
         replay (row sums, α-DP) before any loss comparison. *)
      let first_cell = Str.regexp "\"matrix\":\\[\\[\"[0-9/]+\"" in
      let broken =
        Str.replace_first first_cell "\"matrix\":[[\"9/10\"" (payload_of pristine)
      in
      Alcotest.(check bool) "fixture tampers the matrix" true
        (broken <> payload_of pristine);
      write_file path (frame broken);
      check_load_error "tampered matrix" s ~key "uncertified";

      (* An entry renamed onto another key's slot: filename and key
         disagree. *)
      write_file path pristine;
      let other = Rq.canonical_key (req ~n:5 ()) in
      let other_path = Store.entry_path s ~key:other in
      write_file other_path pristine;
      check_load_error "entry under wrong key" s ~key:other "corrupt";
      Sys.remove other_path;

      (* The pristine bytes still verify — the fixtures above were the
         only problem. *)
      (match Store.load s ~key with
      | Ok (Some c') -> check_artifact_equal "pristine after fixtures" c c'
      | Ok None -> Alcotest.fail "pristine entry vanished"
      | Error e -> Alcotest.failf "pristine entry refused: %s" (Store.error_to_string e));
      let st = Store.stats s in
      Alcotest.(check int) "every refusal counted" 9 st.Store.corrupt)

(* A well-framed entry whose matrix is not square of the size its key
   names: refused as corrupt before the audit or the loss replay
   indexes past a row. *)
let test_wrong_size_matrix () =
  with_store (fun _dir s ->
      let small = compile (req ~n:3 ()) in
      ok_write s small;
      let raw = read_file (Store.entry_path s ~key:small.Co.key) in
      let key = Rq.canonical_key (req ~n:4 ()) in
      let moved =
        Str.global_replace (Str.regexp_string small.Co.key) key (payload_of raw)
      in
      write_file (Store.entry_path s ~key) (frame moved);
      check_load_error "matrix size differs from the key's" s ~key "corrupt";
      let key = small.Co.key in
      let path = Store.entry_path s ~key in
      let pristine = payload_of raw in
      List.iter
        (fun (name, re, by) ->
          let edited = Str.replace_first (Str.regexp re) by pristine in
          Alcotest.(check bool) (name ^ ": fixture edits the matrix") true (edited <> pristine);
          write_file path (frame edited);
          check_load_error name s ~key "corrupt")
        [
          ("empty first row", "\"matrix\":\\[\\[[^]]*\\]", "\"matrix\":[[]");
          ("ragged first row", "\"matrix\":\\[\\[\"[0-9/]+\",", "\"matrix\":[[");
        ])

(* Entries from before the tailored rung's retirement are version-1
   frames, possibly holding a "tailored" rung. They read as stale, fall
   through to a compile, and the write-back replaces them at the
   current version. *)
let test_parent_version_recompiles () =
  with_store (fun _dir s ->
      let r = req ~count:16 () in
      let c = compile r in
      ok_write s c;
      let path = Store.entry_path s ~key:c.Co.key in
      let parent =
        Str.global_replace
          (Str.regexp_string "\"rung\":\"geometric+remap\"")
          "\"rung\":\"tailored\"" (payload_of (read_file path))
      in
      write_file path (frame ~version:1 parent);
      (match Store.load s ~key:c.Co.key with
      | Error (Store.Stale_version { got = 1 }) -> ()
      | Error e -> Alcotest.failf "parent entry: %s" (Store.error_to_string e)
      | Ok _ -> Alcotest.fail "parent-version entry was accepted");
      let resp =
        Engine.with_engine ~domains:1 ~tier:(Store.tier s) (fun e ->
            (Engine.run_batch ~seed:7 e [| r |]).(0))
      in
      Alcotest.(check bool) "stale entry is not a store hit" false resp.Engine.store_hit;
      let plain =
        Engine.with_engine ~domains:1 (fun e -> (Engine.run_batch ~seed:7 e [| r |]).(0))
      in
      Alcotest.(check (array int)) "bytes match a storeless run" plain.Engine.samples
        resp.Engine.samples;
      Alcotest.(check int) "written back at the current version" Store.format_version
        (Char.code (read_file path).[7]);
      match Store.load s ~key:c.Co.key with
      | Ok (Some c') ->
        check_artifact_equal "write-back replaced the entry" c c';
        Alcotest.(check bool) "on a geometric rung" true (Co.rung c' = S.Geometric_remap)
      | _ -> Alcotest.fail "write-back did not replace the stale entry")

(* --------------------------------------------------------------- *)
(* Write hygiene                                                    *)
(* --------------------------------------------------------------- *)

let test_readonly_refuses_write () =
  with_store (fun dir s ->
      let c = compile (req ()) in
      ok_write s c;
      match Store.open_dir ~readonly:true dir with
      | Error e -> Alcotest.failf "readonly open: %s" (Store.error_to_string e)
      | Ok ro -> (
        Alcotest.(check bool) "readonly flag" true (Store.readonly ro);
        (match Store.write ro c with
        | Error (Store.Io _) -> ()
        | Error e -> Alcotest.failf "readonly write: %s" (Store.error_to_string e)
        | Ok () -> Alcotest.fail "readonly store accepted a write");
        match Store.load ro ~key:c.Co.key with
        | Ok (Some _) -> ()
        | _ -> Alcotest.fail "readonly store cannot load"))

let test_readonly_requires_dir () =
  match Store.open_dir ~readonly:true "/nonexistent/dpstore-test" with
  | Error (Store.Io _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Store.error_to_string e)
  | Ok _ -> Alcotest.fail "readonly open invented a directory"

let test_degraded_not_written () =
  with_store (fun _dir s ->
      let r = req ~n:5 () in
      let budget = B.make ~max_pivots:1 () in
      let c = Co.compile ~budget ~alpha:r.Rq.alpha ~key:(Rq.canonical_key r) (Rq.consumer r) in
      Alcotest.(check bool) "fixture is degraded" true
        (c.Co.served.S.provenance.S.attempts <> []);
      ok_write s c;
      Alcotest.(check bool) "no entry on disk" false
        (Sys.file_exists (Store.entry_path s ~key:c.Co.key));
      Alcotest.(check int) "no write counted" 0 (Store.stats s).Store.writes)

let test_temp_sweep () =
  with_store (fun dir s ->
      let c = compile (req ()) in
      ok_write s c;
      (* A mid-write kill leaves a temp file; reopen sweeps it and the
         real entry survives. *)
      let stale = Store.entry_path s ~key:c.Co.key ^ ".tmp.9999" in
      write_file stale "half a frame";
      (match Store.reopen s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reopen: %s" (Store.error_to_string e));
      Alcotest.(check bool) "temp swept" false (Sys.file_exists stale);
      Alcotest.(check bool) "entry survives" true
        (Sys.file_exists (Store.entry_path s ~key:c.Co.key));
      (* open_dir sweeps too. *)
      write_file stale "half a frame";
      (match Store.open_dir dir with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "open_dir resweep: %s" (Store.error_to_string e));
      Alcotest.(check bool) "temp swept at open" false (Sys.file_exists stale))

let test_load_all () =
  with_store (fun _dir s ->
      let a = compile (req ()) in
      let b = compile (req ~n:5 ~loss:Rq.Squared ()) in
      ok_write s a;
      ok_write s b;
      (* One corrupt neighbor must not poison the preload. *)
      let junk = Filename.concat (Store.dir s) "junk.dpa" in
      write_file junk "not a frame at all, and long enough to parse";
      let loaded, refused = Store.load_all s in
      Alcotest.(check (list string)) "verified artifacts in key order"
        (List.sort String.compare [ a.Co.key; b.Co.key ])
        (List.map (fun (c : Co.t) -> c.Co.key) loaded);
      match refused with
      | [ (name, e) ] ->
        Alcotest.(check string) "refused file" "junk.dpa" name;
        Alcotest.(check string) "refused error" "bad_magic" (error_name e)
      | l -> Alcotest.failf "expected one refusal, got %d" (List.length l))

(* --------------------------------------------------------------- *)
(* Fault sites                                                      *)
(* --------------------------------------------------------------- *)

let test_fault_sites () =
  with_store (fun _dir s ->
      let c = compile (req ()) in
      (* store.write: the entry is simply not persisted. *)
      F.with_plan
        (F.plan [ { F.site = "store.write"; hits = 1; action = F.Trip } ])
        (fun () ->
          match Store.write s c with
          | Error (Store.Io _) -> ()
          | Error e -> Alcotest.failf "write fault: %s" (Store.error_to_string e)
          | Ok () -> Alcotest.fail "write fault did not surface");
      Alcotest.(check bool) "no entry after write fault" false
        (Sys.file_exists (Store.entry_path s ~key:c.Co.key));
      ok_write s c;
      (* store.read: the probe degrades to Io (a miss at tier level). *)
      F.with_plan
        (F.plan [ { F.site = "store.read"; hits = 1; action = F.Trip } ])
        (fun () ->
          match Store.load s ~key:c.Co.key with
          | Error (Store.Io _) -> ()
          | Error e -> Alcotest.failf "read fault: %s" (Store.error_to_string e)
          | Ok _ -> Alcotest.fail "read fault did not surface");
      (* store.verify: the entry is refused as uncertified. *)
      F.with_plan
        (F.plan [ { F.site = "store.verify"; hits = 1; action = F.Trip } ])
        (fun () ->
          match Store.load s ~key:c.Co.key with
          | Error (Store.Uncertified { rule }) ->
            Alcotest.(check string) "verify fault rule" "injected" rule
          | Error e -> Alcotest.failf "verify fault: %s" (Store.error_to_string e)
          | Ok _ -> Alcotest.fail "verify fault did not surface");
      (* And with no plan, the entry still serves. *)
      match Store.load s ~key:c.Co.key with
      | Ok (Some _) -> ()
      | _ -> Alcotest.fail "entry unusable after fault drills")

(* --------------------------------------------------------------- *)
(* Engine tier integration                                          *)
(* --------------------------------------------------------------- *)

let test_engine_tier_round_trip () =
  with_store (fun _dir s ->
      let requests = Array.of_list (List.map snd round_trip_cases) in
      let cold =
        Engine.with_engine ~domains:1 ~tier:(Store.tier s) (fun e ->
            Engine.run_batch ~seed:7 e requests)
      in
      Array.iter
        (fun (r : Engine.response) ->
          Alcotest.(check bool) "cold run compiles" false r.Engine.store_hit)
        cold;
      (* A fresh engine over the same store: every request is a store
         hit, and the samples are byte-identical. *)
      let warm =
        Engine.with_engine ~domains:1 ~tier:(Store.tier s) (fun e ->
            Engine.run_batch ~seed:7 e requests)
      in
      Array.iteri
        (fun i (w : Engine.response) ->
          let c = cold.(i) in
          Alcotest.(check bool) ("warm store hit " ^ string_of_int i) true w.Engine.store_hit;
          Alcotest.(check (array int)) ("warm samples " ^ string_of_int i) c.Engine.samples
            w.Engine.samples;
          Alcotest.(check string) ("warm loss " ^ string_of_int i)
            (Rat.to_string c.Engine.loss) (Rat.to_string w.Engine.loss))
        warm;
      (* And a storeless engine agrees byte for byte — the tier can
         accelerate, never alter. *)
      let plain =
        Engine.with_engine ~domains:1 (fun e -> Engine.run_batch ~seed:7 e requests)
      in
      Array.iteri
        (fun i (p : Engine.response) ->
          Alcotest.(check (array int)) ("storeless samples " ^ string_of_int i)
            p.Engine.samples warm.(i).Engine.samples)
        plain)

let test_engine_tier_corrupt_degrades () =
  with_store (fun _dir s ->
      let r = req () in
      let c = compile r in
      ok_write s c;
      (* Smash the entry; the tier must fall through to compile. *)
      let path = Store.entry_path s ~key:c.Co.key in
      write_file path "garbage that is long enough to not be a frame";
      let resp =
        Engine.with_engine ~domains:1 ~tier:(Store.tier s) (fun e ->
            (Engine.run_batch ~seed:7 e [| r |]).(0))
      in
      Alcotest.(check bool) "corrupt entry is not a store hit" false resp.Engine.store_hit;
      let plain =
        Engine.with_engine ~domains:1 (fun e -> (Engine.run_batch ~seed:7 e [| r |]).(0))
      in
      Alcotest.(check (array int)) "bytes match storeless run" plain.Engine.samples
        resp.Engine.samples;
      (* The healthy compile was written back over the garbage. *)
      match Store.load s ~key:c.Co.key with
      | Ok (Some c') -> check_artifact_equal "write-back healed the entry" c c'
      | _ -> Alcotest.fail "write-back did not heal the corrupt entry")

let () =
  Alcotest.run "store"
    [
      ( "round-trip",
        [
          Alcotest.test_case "artifact round trip (all loss/side shapes)" `Quick
            test_round_trip;
          Alcotest.test_case "miss on absent key; sorted keys" `Quick test_miss_and_keys;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "golden corrupt fixtures → typed errors" `Quick
            test_corrupt_fixtures;
          Alcotest.test_case "load_all skips corrupt neighbors" `Quick test_load_all;
          Alcotest.test_case "matrix of another size is refused" `Quick test_wrong_size_matrix;
          Alcotest.test_case "parent-version entry recompiles" `Quick
            test_parent_version_recompiles;
        ] );
      ( "write-hygiene",
        [
          Alcotest.test_case "readonly refuses writes" `Quick test_readonly_refuses_write;
          Alcotest.test_case "readonly requires the directory" `Quick
            test_readonly_requires_dir;
          Alcotest.test_case "degraded releases are not persisted" `Quick
            test_degraded_not_written;
          Alcotest.test_case "stale temp files are swept" `Quick test_temp_sweep;
        ] );
      ( "faults",
        [ Alcotest.test_case "store.read/write/verify sites" `Quick test_fault_sites ] );
      ( "engine-tier",
        [
          Alcotest.test_case "cold → warm byte identity" `Quick test_engine_tier_round_trip;
          Alcotest.test_case "corrupt entry degrades to compile" `Quick
            test_engine_tier_corrupt_degrades;
        ] );
    ]
