(* lib/session unit tests: exact-ℚ privacy-budget ledgers, epoch
   determinism (the served rungs are a pure function of (seed, group,
   epoch)), replayable collusion certificates, durable checkpoint
   round trips with verify-on-load, and both fault sites. *)

module S = Minimax_dp.Session
module C = Minimax_dp.Session.Certificate
module ML = Minimax.Multi_level
module F = Resilience.Fault

let q = Rat.of_ints

let rat_t =
  Alcotest.testable (fun ppf r -> Format.pp_print_string ppf (Rat.to_string r)) Rat.equal

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ok = function Ok v -> v | Error m -> Alcotest.failf "unexpected error: %s" m

let err = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error m -> m

let fresh ?seed ?checkpoint () =
  match S.create ?seed ?checkpoint () with
  | Ok t -> t
  | Error m -> Alcotest.failf "Session.create: %s" m

let tmpfile () =
  let f = Filename.temp_file "dpsession" ".frame" in
  Sys.remove f;
  f

let release_ok t ~n ~input =
  match S.release t ~n ~input with
  | Ok r -> r
  | Error (S.Rejected m | S.Faulted m) -> Alcotest.failf "release refused: %s" m

(* ------------------------------------------------------------------ *)

let test_group_key () =
  Alcotest.(check string) "canonical group key" "n=6;i=3" (S.group_key ~n:6 ~input:3)

let test_subscribe_validation () =
  let t = fresh () in
  let sub ?budget ?(sub = "alice") ?(level = q 1 2) () =
    S.subscribe t ~sub ~n:4 ~input:2 ~level ?budget ()
  in
  ignore (err (sub ~sub:"bad name!" ()));
  ignore (err (sub ~level:(q 0 1) ()));
  ignore (err (sub ~level:(q 1 1) ()));
  ignore (err (sub ~budget:(q 3 2) ()));
  ignore (err (S.subscribe t ~sub:"alice" ~n:0 ~input:0 ~level:(q 1 2) ()));
  ignore (err (S.subscribe t ~sub:"alice" ~n:4 ~input:5 ~level:(q 1 2) ()));
  let v = ok (sub ()) in
  Alcotest.check rat_t "ledger starts at 1" Rat.one v.S.v_spent;
  Alcotest.(check bool) "active" true v.S.v_active;
  (* Same level while active: idempotent. A different level: refused. *)
  ignore (ok (sub ()));
  ignore (err (sub ~level:(q 1 3) ()));
  let v = ok (S.unsubscribe t ~sub:"alice" ~n:4 ~input:2) in
  Alcotest.(check bool) "inactive after unsubscribe" false v.S.v_active;
  (* An inactive ledger may return at any level. *)
  let v = ok (sub ~level:(q 1 3) ()) in
  Alcotest.check rat_t "returning ledger keeps its spend" Rat.one v.S.v_spent

(* Gate (a) of bench S1, at unit scale: every rung a release serves is
   byte-derived from the one epoch draw, which is itself the pure
   function [epoch_stream] of (seed, group key, epoch). *)
let test_epoch_determinism () =
  let levels = [ q 1 3; q 1 2; q 2 3 ] in
  let subscribe_all t =
    List.iteri
      (fun i level ->
        ignore
          (ok (S.subscribe t ~sub:(Printf.sprintf "sub%d" i) ~n:6 ~input:3 ~level ())))
      levels
  in
  let a = fresh ~seed:7 () and b = fresh ~seed:7 () in
  subscribe_all a;
  subscribe_all b;
  let plan = ML.make_plan ~n:6 ~levels in
  for epoch = 0 to 3 do
    let ra = release_ok a ~n:6 ~input:3 and rb = release_ok b ~n:6 ~input:3 in
    let expect =
      ML.release plan ~true_result:3
        (S.epoch_stream ~seed:7 ~group:(S.group_key ~n:6 ~input:3) ~epoch)
    in
    Alcotest.(check (array int))
      (Printf.sprintf "epoch %d matches the contract stream" epoch)
      expect ra.S.r_values;
    Alcotest.(check (array int))
      (Printf.sprintf "epoch %d identical across instances" epoch)
      ra.S.r_values rb.S.r_values;
    List.iter2
      (fun (_, oa) level ->
        match oa with
        | S.Served { value; level = l; _ } ->
          Alcotest.check rat_t "outcome level" level l;
          let idx = ref 0 in
          List.iteri (fun i l' -> if Rat.equal l' level then idx := i) levels;
          Alcotest.(check int) "rung served off the shared draw" ra.S.r_values.(!idx) value
        | S.Refused _ -> Alcotest.fail "no floors set; nothing may be refused")
      ra.S.r_outcomes levels
  done;
  Alcotest.(check int) "seed accessor" 7 (S.seed a)

(* Exact multiplicative ledgers: spent is the product of released α's,
   refusals fire exactly when spent·α < floor, and a refusal charges
   nothing. *)
let test_ledger_products () =
  let t = fresh () in
  ignore (ok (S.subscribe t ~sub:"alice" ~n:4 ~input:2 ~level:(q 1 2) ()));
  ignore (ok (S.subscribe t ~sub:"bob" ~n:4 ~input:2 ~level:(q 1 3) ~budget:(q 1 9) ()));
  let spent sub = (ok (S.ledger t ~sub ~n:4 ~input:2)).S.v_spent in
  ignore (release_ok t ~n:4 ~input:2);
  Alcotest.check rat_t "alice 1/2" (q 1 2) (spent "alice");
  Alcotest.check rat_t "bob 1/3" (q 1 3) (spent "bob");
  ignore (release_ok t ~n:4 ~input:2);
  Alcotest.check rat_t "alice 1/4" (q 1 4) (spent "alice");
  Alcotest.check rat_t "bob 1/9 — exactly at the floor" (q 1 9) (spent "bob");
  let r = release_ok t ~n:4 ~input:2 in
  Alcotest.check rat_t "alice 1/8" (q 1 8) (spent "alice");
  Alcotest.check rat_t "bob refused, ledger untouched" (q 1 9) (spent "bob");
  (match List.assoc "bob" r.S.r_outcomes with
  | S.Refused { spent; floor; _ } ->
    Alcotest.check rat_t "refusal reports spent" (q 1 9) spent;
    Alcotest.check rat_t "refusal reports floor" (q 1 9) floor
  | S.Served _ -> Alcotest.fail "1/27 < 1/9: bob must be refused");
  let v = ok (S.ledger t ~sub:"bob" ~n:4 ~input:2) in
  Alcotest.(check int) "bob served twice" 2 v.S.v_served;
  Alcotest.(check int) "bob refused once" 1 v.S.v_refusals

let test_floor_tightens_only () =
  let t = fresh () in
  ignore
    (ok (S.subscribe t ~sub:"alice" ~n:4 ~input:2 ~level:(q 1 2) ~budget:(q 1 4) ()));
  (* Tightening while active is fine; loosening never is. *)
  ignore
    (ok (S.subscribe t ~sub:"alice" ~n:4 ~input:2 ~level:(q 1 2) ~budget:(q 1 2) ()));
  ignore
    (err (S.subscribe t ~sub:"alice" ~n:4 ~input:2 ~level:(q 1 2) ~budget:(q 1 4) ()));
  ignore (ok (S.unsubscribe t ~sub:"alice" ~n:4 ~input:2));
  (* A re-subscribe after unsubscribing cannot launder the floor either. *)
  ignore
    (err (S.subscribe t ~sub:"alice" ~n:4 ~input:2 ~level:(q 1 3) ~budget:(q 1 4) ()));
  let v = ok (S.subscribe t ~sub:"alice" ~n:4 ~input:2 ~level:(q 1 3) ()) in
  Alcotest.(check (option rat_t)) "floor survives" (Some (q 1 2)) v.S.v_floor

(* Gate (b) at unit scale: every emitted certificate replays green
   from its own data, and any tampering turns the replay red. *)
let test_certificate_replay () =
  let t = fresh () in
  List.iteri
    (fun i level ->
      ignore (ok (S.subscribe t ~sub:(Printf.sprintf "s%d" i) ~n:5 ~input:2 ~level ())))
    [ q 1 3; q 1 2 ];
  let r = release_ok t ~n:5 ~input:2 in
  let cert = r.S.r_certificate in
  (match C.replay cert with
  | Ok () -> ()
  | Error rule -> Alcotest.failf "fresh certificate replays red: %s" rule);
  Alcotest.(check (list string))
    "certificate names its checks"
    [ "lemma3-transition"; "stage-marginal"; "lemma4-posterior" ]
    cert.C.checks;
  (* Tamper with a rung: the posterior digest no longer matches. *)
  let tampered_values = Array.copy cert.C.values in
  tampered_values.(0) <- (tampered_values.(0) + 1) mod 6;
  (match C.replay { cert with C.values = tampered_values } with
  | Ok () -> Alcotest.fail "tampered values replayed green"
  | Error _ -> ());
  (match C.replay { cert with C.posterior = String.make 32 '0' } with
  | Ok () -> Alcotest.fail "tampered digest replayed green"
  | Error rule -> Alcotest.(check string) "digest check" "posterior-digest" rule);
  (match C.replay { cert with C.values = [| 0 |] } with
  | Ok () -> Alcotest.fail "truncated values replayed green"
  | Error _ -> ());
  (* The wire round trip preserves replayability. *)
  match C.of_json (C.to_json cert) with
  | Error m -> Alcotest.failf "certificate JSON round trip: %s" m
  | Ok cert' -> (
    Alcotest.(check string) "round-tripped digest" cert.C.posterior cert'.C.posterior;
    match C.replay cert' with
    | Ok () -> ()
    | Error rule -> Alcotest.failf "round-tripped certificate red: %s" rule)

(* Gate (d) at unit scale: a warm restart resumes ledgers and the
   split chain — continuing epochs byte-identically, double-spending
   nothing. *)
let test_checkpoint_roundtrip () =
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* The uninterrupted reference: four epochs in one life. *)
      let reference = fresh ~seed:11 () in
      ignore (ok (S.subscribe reference ~sub:"alice" ~n:5 ~input:1 ~level:(q 1 2) ()));
      let ref_values =
        List.init 4 (fun _ -> (release_ok reference ~n:5 ~input:1).S.r_values)
      in
      (* The interrupted run: two epochs, a restart from the frame,
         two more. *)
      let first = fresh ~seed:11 ~checkpoint:path () in
      ignore (ok (S.subscribe first ~sub:"alice" ~n:5 ~input:1 ~level:(q 1 2) ()));
      let v01 = List.init 2 (fun _ -> (release_ok first ~n:5 ~input:1).S.r_values) in
      let resumed = fresh ~seed:11 ~checkpoint:path () in
      let v = ok (S.ledger resumed ~sub:"alice" ~n:5 ~input:1) in
      Alcotest.check rat_t "ledger resumed intact" (q 1 4) v.S.v_spent;
      Alcotest.(check int) "epoch counter resumed" 2 v.S.v_epoch;
      Alcotest.(check bool) "subscriptions are not durable" false v.S.v_active;
      (match S.release resumed ~n:5 ~input:1 with
      | Ok _ -> Alcotest.fail "released with no active subscribers"
      | Error (S.Rejected _) -> ()
      | Error (S.Faulted m) -> Alcotest.failf "unexpected fault: %s" m);
      ignore (ok (S.subscribe resumed ~sub:"alice" ~n:5 ~input:1 ~level:(q 1 2) ()));
      let v23 = List.init 2 (fun _ -> (release_ok resumed ~n:5 ~input:1).S.r_values) in
      List.iteri
        (fun i (expect, got) ->
          Alcotest.(check (array int))
            (Printf.sprintf "epoch %d byte-identical across the restart" i)
            expect got)
        (List.combine ref_values (v01 @ v23));
      let v = ok (S.ledger resumed ~sub:"alice" ~n:5 ~input:1) in
      Alcotest.check rat_t "no double spend: (1/2)^4" (q 1 16) v.S.v_spent)

(* Checkpoints keep frame version 1 when the artifact store's version
   moves: a checkpoint framed the way every earlier build framed it —
   magic, u32 BE version 1, u32 BE length, payload, MD5, rebuilt here
   from the spec — still resumes its ledgers. *)
let test_checkpoint_parent_version () =
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let t = fresh ~seed:7 ~checkpoint:path () in
      ignore (ok (S.subscribe t ~sub:"alice" ~n:4 ~input:2 ~level:(q 1 2) ()));
      ignore (release_ok t ~n:4 ~input:2);
      let raw = In_channel.with_open_bin path In_channel.input_all in
      let payload = String.sub raw 12 (String.length raw - 28) in
      let u32 v = String.init 4 (fun k -> Char.chr ((v lsr (8 * (3 - k))) land 0xff)) in
      let body = "DPST" ^ u32 1 ^ u32 (String.length payload) ^ payload in
      let parent = body ^ Digest.string body in
      Alcotest.(check string) "written at the parent's frame version" parent raw;
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc parent);
      let resumed = fresh ~seed:7 ~checkpoint:path () in
      let v = ok (S.ledger resumed ~sub:"alice" ~n:4 ~input:2) in
      Alcotest.check rat_t "ledger resumed" (q 1 2) v.S.v_spent;
      Alcotest.(check int) "epoch counter resumed" 1 v.S.v_epoch)

let test_checkpoint_verify_on_load () =
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let t = fresh ~seed:3 ~checkpoint:path () in
      ignore (ok (S.subscribe t ~sub:"alice" ~n:4 ~input:0 ~level:(q 1 2) ()));
      ignore (release_ok t ~n:4 ~input:0);
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path);
      (* A different seed would replay a different draw chain: typed
         refusal to start, never a silent reset. *)
      (match S.create ~seed:4 ~checkpoint:path () with
      | Ok _ -> Alcotest.fail "accepted a checkpoint from another seed"
      | Error m ->
        Alcotest.(check bool) "seed refusal names the seed" true
          (contains_sub ~sub:"seed 3" m));
      (* A flipped byte in the frame is a typed corruption refusal. *)
      let raw = In_channel.with_open_bin path In_channel.input_all in
      let broken = Bytes.of_string raw in
      Bytes.set broken (Bytes.length broken - 1)
        (Char.chr (Char.code (Bytes.get broken (Bytes.length broken - 1)) lxor 1));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc broken);
      (match S.create ~seed:3 ~checkpoint:path () with
      | Ok _ -> Alcotest.fail "accepted a corrupt frame"
      | Error _ -> ());
      (* A foreign (but valid) frame is refused by format tag. *)
      (match Store.Frame.write ~version:1 ~path ~payload:{|{"format":"dpstore"}|} with
      | Ok () -> ()
      | Error e -> Alcotest.failf "frame write: %s" (Store.Frame.error_to_string e));
      match S.create ~seed:3 ~checkpoint:path () with
      | Ok _ -> Alcotest.fail "accepted a foreign format"
      | Error m ->
        Alcotest.(check bool) "format refusal" true (contains_sub ~sub:"format" m))

(* session.epoch trips before the chain advances: the faulted epoch is
   refused cleanly and the next successful release draws exactly what
   the faulted one would have. *)
let test_fault_epoch () =
  let t = fresh ~seed:5 () in
  ignore (ok (S.subscribe t ~sub:"alice" ~n:4 ~input:2 ~level:(q 1 2) ()));
  let r0 = release_ok t ~n:4 ~input:2 in
  F.with_plan (F.plan [ { F.site = "session.epoch"; hits = 1; action = F.Trip } ])
    (fun () ->
      match S.release t ~n:4 ~input:2 with
      | Error (S.Faulted _) -> ()
      | Ok _ -> Alcotest.fail "released through a tripped epoch"
      | Error (S.Rejected m) -> Alcotest.failf "wrong refusal kind: %s" m);
  let v = ok (S.ledger t ~sub:"alice" ~n:4 ~input:2) in
  Alcotest.check rat_t "nothing charged by the fault" (q 1 2) v.S.v_spent;
  Alcotest.(check int) "no epoch minted" 1 v.S.v_epoch;
  let r1 = release_ok t ~n:4 ~input:2 in
  let expect =
    ML.release
      (ML.make_plan ~n:4 ~levels:[ q 1 2 ])
      ~true_result:2
      (S.epoch_stream ~seed:5 ~group:(S.group_key ~n:4 ~input:2) ~epoch:1)
  in
  Alcotest.(check (array int)) "epoch 1 unshifted by the fault" expect r1.S.r_values;
  Alcotest.(check int) "epochs numbered contiguously" (r0.S.r_epoch + 1) r1.S.r_epoch

(* session.ledger trips at checkpoint write: durability degrades (and
   is counted), serving does not. *)
let test_fault_ledger () =
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let t = fresh ~seed:5 ~checkpoint:path () in
      F.with_plan (F.plan [ { F.site = "session.ledger"; hits = 0; action = F.Trip } ])
        (fun () ->
          ignore (ok (S.subscribe t ~sub:"alice" ~n:4 ~input:2 ~level:(q 1 2) ()));
          let r = release_ok t ~n:4 ~input:2 in
          Alcotest.(check int) "served through the ledger fault" 1
            (List.length r.S.r_outcomes);
          Alcotest.(check bool) "no frame landed" false (Sys.file_exists path));
      (* With the plan gone the next mutation checkpoints fine. *)
      ignore (release_ok t ~n:4 ~input:2);
      Alcotest.(check bool) "frame lands after the fault clears" true
        (Sys.file_exists path))

let () =
  Alcotest.run "session"
    [
      ( "grammar",
        [
          Alcotest.test_case "group key" `Quick test_group_key;
          Alcotest.test_case "subscribe validation" `Quick test_subscribe_validation;
        ] );
      ( "determinism",
        [ Alcotest.test_case "epoch draws are a pure function" `Quick test_epoch_determinism ]
      );
      ( "ledgers",
        [
          Alcotest.test_case "multiplicative spend and exact refusal" `Quick
            test_ledger_products;
          Alcotest.test_case "floors only tighten" `Quick test_floor_tightens_only;
        ] );
      ( "certificates",
        [ Alcotest.test_case "replay green, tampering red" `Quick test_certificate_replay ]
      );
      ( "durability",
        [
          Alcotest.test_case "warm restart, zero double-spend" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "verify-on-load refusals" `Quick test_checkpoint_verify_on_load;
          Alcotest.test_case "parent-version checkpoint loads" `Quick
            test_checkpoint_parent_version;
        ] );
      ( "faults",
        [
          Alcotest.test_case "session.epoch refuses cleanly" `Quick test_fault_epoch;
          Alcotest.test_case "session.ledger degrades durability only" `Quick
            test_fault_ledger;
        ] );
    ]
