(* Chaos harness (`dune build @chaos`, or `make chaos`).

   Sweeps the deterministic fault matrix — every registered trigger
   site crossed with every action and both hit disciplines (first hit,
   every hit) — and asserts the system's two resilience contracts:

   - solver sites ("simplex.phase1"/"simplex.phase2"): whatever fault
     fires inside the LP, [Minimax.Serve.serve] still returns a
     mechanism for each example consumer, its provenance names the
     (geometric) ladder rung taken, and [Check.Invariants]
     independently certifies α-DP and Theorem-2 derivability;

   - non-solver sites ("mech.factor", "multilevel.stage",
     "dpdb.csv.row"): the injected fault surfaces
     as a clean [Fault.Injected] — and the identical call succeeds once
     the plan is gone, so a trip corrupts no state;

   - engine sites ("engine.cache", "engine.worker"): a faulted batch
     is absorbed, not surfaced — the cache trip degrades to cacheless
     compiles and the worker trip to inline retries — and the served
     samples are byte-identical to a clean run's, with every artifact
     that did enter the cache still carrying its certificates.

   Everything here is deterministic: no clocks, no randomness, exact
   hit counts — the same matrix trips the same faults every run. *)

let q = Rat.of_ints

module B = Resilience.Budget
module F = Resilience.Fault
module E = Resilience.Solver_error
module S = Minimax.Serve
module I = Check.Invariants

let failures = ref 0

let check label ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" label
  end

(* ------------------------------------------------------------------ *)
(* Solver sites: the serve ladder must absorb every fault.            *)
(* ------------------------------------------------------------------ *)

let solver_sites = [ "simplex.phase1"; "simplex.phase2" ]

let actions =
  [
    ("trip", F.Trip);
    ("exhaust-deadline", F.Exhaust E.Deadline);
    ("exhaust-pivots", F.Exhaust E.Pivots);
    ("exhaust-bits", F.Exhaust E.Bits);
    ("exhaust-injected", F.Exhaust E.Injected);
    ("blowup-bits", F.Blowup_bits 4096);
  ]

let consumers =
  [
    ("absolute", Minimax.Loss.absolute);
    ("zero-one", Minimax.Loss.zero_one);
  ]

let alpha = q 1 2
let n = 4

let certified_serve label plan ~budget =
  let consumer loss = Minimax.Consumer.make ~loss ~side_info:(Minimax.Side_info.full n) () in
  List.iter
    (fun (lname, loss) ->
      let label = Printf.sprintf "%s consumer=%s" label lname in
      match F.with_plan plan (fun () -> S.serve ?budget ~alpha (consumer loss)) with
      | exception e ->
        check (label ^ ": serve raised " ^ Printexc.to_string e) false
      | s ->
        let m = Mech.Mechanism.matrix s.S.mechanism in
        let rung = s.S.provenance.S.rung in
        check (label ^ ": provenance names a rung") (S.rung_to_string rung <> "");
        check (label ^ ": a geometric rung") (rung <> S.Tailored);
        check (label ^ ": alpha-dp certified") (I.passed (I.alpha_dp ~alpha m));
        check (label ^ ": derivability certified") (I.passed (I.derivability ~alpha m)))
    consumers

let solver_matrix () =
  List.iter
    (fun site ->
      List.iter
        (fun (aname, action) ->
          List.iter
            (fun hits ->
              let label = Printf.sprintf "site=%s action=%s hits=%d" site aname hits in
              let plan = F.plan [ { F.site; hits; action } ] in
              (* Blowup_bits only matters against a bit ceiling. *)
              let budget =
                match action with
                | F.Blowup_bits _ -> Some (B.make ~max_bits:256 ())
                | _ -> None
              in
              certified_serve label plan ~budget)
            [ 1; 0 ])
        actions)
    solver_sites;
  (* The acceptance scenario: the LP budget exhausts at EVERY simplex
     site on every hit — no LP can run, the ladder must bottom out on
     raw G(n,α) and still certify. *)
  let plan =
    F.plan
      (List.map (fun site -> { F.site; hits = 0; action = F.Exhaust E.Pivots }) solver_sites)
  in
  certified_serve "all-sites-exhausted" plan ~budget:None

(* ------------------------------------------------------------------ *)
(* Non-solver sites: clean Injected, no state corruption.             *)
(* ------------------------------------------------------------------ *)

let trip_sites =
  [
    ( "mech.factor",
      fun () -> ignore (Mech.Derivability.derive ~alpha (Mech.Geometric.matrix ~n ~alpha)) );
    ( "multilevel.stage",
      fun () -> ignore (Minimax.Multi_level.make_plan ~n ~levels:[ q 1 3; q 1 2 ]) );
    ( "dpdb.csv.row", fun () -> ignore (Dpdb.Csv.of_string "age:int\n30\n41\n") );
  ]

let trip_matrix () =
  List.iter
    (fun (site, workload) ->
      let plan = F.plan [ { F.site; hits = 1; action = F.Trip } ] in
      (match F.with_plan plan workload with
       | exception F.Injected { site = s; hit = 1 } ->
         check (site ^ ": Injected names the site") (s = site)
       | exception e ->
         check (site ^ ": clean Injected, got " ^ Printexc.to_string e) false
       | () -> check (site ^ ": trip fired") false);
      check (site ^ ": exactly one trip recorded") (F.trips plan = 1);
      (* The same workload with no plan installed must succeed: a trip
         leaves no residue behind. *)
      match workload () with
      | () -> ()
      | exception e -> check (site ^ ": retry clean, got " ^ Printexc.to_string e) false)
    trip_sites

(* ------------------------------------------------------------------ *)
(* Engine sites: faulted batches serve the same bytes as clean ones.  *)
(* ------------------------------------------------------------------ *)

module En = Engine
module Rq = Engine.Request

(* Three requests, two naming the same consumer — so the cache path
   (miss, miss, hit) and both fault sites all get exercised. *)
let engine_requests =
  let mk input count loss =
    match Rq.make ~input ~count ~n ~alpha ~loss ~side:Rq.Full () with
    | Ok r -> r
    | Error m -> failwith ("chaos engine request: " ^ m)
  in
  [| mk 1 50 Rq.Absolute; mk 3 40 Rq.Zero_one; mk 2 30 Rq.Absolute |]

(* (label, site, hits, expected trips, expected cache insertions).
   A tripped cache lookup compiles outside the cache, so bypassing
   every request leaves the cache empty; worker trips never touch the
   cache at all. *)
let engine_scenarios =
  [
    ("engine.cache trip, first request", "engine.cache", 1, 1, 2);
    ("engine.cache trip, every request", "engine.cache", 0, 3, 0);
    ("engine.worker trip, one job", "engine.worker", 1, 1, 2);
    ("engine.worker trip, every job", "engine.worker", 0, 3, 2);
  ]

let engine_matrix () =
  let samples rs = Array.map (fun (r : En.response) -> r.En.samples) rs in
  let run plan =
    En.with_engine ~domains:1 (fun e ->
        let go () = En.run_batch ~seed:7 e engine_requests in
        let rs = match plan with None -> go () | Some p -> F.with_plan p go in
        let cached_certified =
          Array.for_all
            (fun (r : En.response) ->
              match En.artifact e r.En.request with
              | None -> true (* bypassed compiles never enter the cache *)
              | Some a -> a.En.Compiled.certificates <> [])
            rs
        in
        (rs, En.cache_stats e, cached_certified))
  in
  let baseline, _, _ = run None in
  List.iter
    (fun (label, site, hits, expect_trips, expect_insertions) ->
      let p = F.plan [ { F.site; hits; action = F.Trip } ] in
      match run (Some p) with
      | exception e ->
        check (label ^ ": batch absorbed the fault, got " ^ Printexc.to_string e) false
      | rs, stats, certified ->
        check (label ^ ": output byte-identical to clean run") (samples rs = samples baseline);
        check (label ^ ": cached artifacts certified") certified;
        check (label ^ ": trip count") (F.trips p = expect_trips);
        check (label ^ ": cache insertions")
          (stats.En.Cache.insertions = expect_insertions))
    engine_scenarios

(* ------------------------------------------------------------------ *)
(* Server sites: a dropped accept or a dead peer is contained to its  *)
(* connection, and everyone else gets clean-run bytes.                *)
(* ------------------------------------------------------------------ *)

module Sv = Server
module Fr = Server.Framing

let server_config = { Sv.default_config with Sv.domains = Some 1; queue_capacity = 8 }

let with_server f =
  let t = Sv.create ~config:server_config () in
  let d = Domain.spawn (fun () -> Sv.serve t) in
  Fun.protect
    ~finally:(fun () ->
      Sv.stop t;
      Domain.join d)
    (fun () -> f (Sv.port t))

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Client writes go through an out_channel rather than Framing so the
   ambient plan's ["server.write"] trigger can only ever fire in the
   server — the client is not part of the blast radius under test. *)
let send_raw fd lines =
  let oc = Unix.out_channel_of_descr fd in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  flush oc;
  Unix.shutdown fd Unix.SHUTDOWN_SEND

let recv_all fd =
  let r = Fr.reader fd in
  let rec go acc =
    let res = Fr.poll r in
    let acc = List.rev_append res.Fr.lines acc in
    if res.Fr.eof then List.rev acc else go acc
  in
  go []

let round_trip port lines =
  let fd = connect port in
  send_raw fd lines;
  let got = recv_all fd in
  Unix.close fd;
  got

let server_lines =
  [
    "v=1 id=c0 seed=601 n=4 alpha=1/2 count=5";
    "v=1 id=c1 seed=602 n=4 alpha=1/3 loss=squared count=4";
  ]

let server_scenario_count = 2

let server_matrix () =
  (* SIGPIPE is ignored once serve() runs, but the first scenario's
     client may write to a dropped socket before then. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let baseline = with_server (fun port -> round_trip port server_lines) in
  check "server baseline: every request answered" (List.length baseline = 2);
  (* server.accept: the victim socket is dropped and counted; the
     listener survives, and the very next connection is served the
     clean run's bytes. *)
  (let p = F.plan [ { F.site = "server.accept"; hits = 1; action = F.Trip } ] in
   F.with_plan p (fun () ->
       with_server (fun port ->
           let victim = connect port in
           let dropped = recv_all victim in
           Unix.close victim;
           check "server.accept: victim dropped without bytes" (dropped = []);
           check "server.accept: exactly one trip" (F.trips p = 1);
           check "server.accept: next connection byte-identical to clean run"
             (round_trip port server_lines = baseline))));
  (* server.write: the victim's first response flush behaves as a dead
     peer — its connection aborts with no partial frame — while later
     connections still get the clean run's bytes. *)
  let p = F.plan [ { F.site = "server.write"; hits = 1; action = F.Trip } ] in
  F.with_plan p (fun () ->
      with_server (fun port ->
          let victim = connect port in
          send_raw victim server_lines;
          let got = recv_all victim in
          Unix.close victim;
          check "server.write: victim aborted without a partial response" (got = []);
          check "server.write: exactly one trip" (F.trips p = 1);
          check "server.write: later connection byte-identical to clean run"
            (round_trip port server_lines = baseline)))

(* ------------------------------------------------------------------ *)

let () =
  solver_matrix ();
  trip_matrix ();
  engine_matrix ();
  server_matrix ();
  let scenarios =
    (List.length solver_sites * List.length actions * 2 + 1) * List.length consumers
    + List.length trip_sites
    + List.length engine_scenarios
    + server_scenario_count
  in
  if !failures > 0 then begin
    Printf.printf "chaos: %d failure(s) across %d scenarios\n" !failures scenarios;
    exit 1
  end;
  Printf.printf
    "chaos: clean (%d scenarios: %d solver-site plans x %d consumers, %d trip sites, %d \
     engine scenarios, %d server scenarios)\n"
    scenarios
    (List.length solver_sites * List.length actions * 2 + 1)
    (List.length consumers) (List.length trip_sites) (List.length engine_scenarios)
    server_scenario_count
