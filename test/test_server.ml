(* End-to-end protocol tests for lib/server over real loopback
   sockets, driven entirely through the Minimax_dp umbrella: golden
   byte-exact rejection transcripts, overload and deadline admission
   control, drain-on-stop, and loopback determinism — the response
   bytes for a request file are identical whether it travels over one
   connection or several, for any worker count, and match what the
   engine produces directly for the same file. *)

module Server = Minimax_dp.Server
module F = Minimax_dp.Server.Framing
module Resp = Minimax_dp.Response
module Rq = Minimax_dp.Request
module E = Minimax_dp.Engine
module Seeder = Minimax_dp.Seeder
module J = Obs.Json

let config ?(domains = 2) ?(queue = 64) ?deadline_ms () =
  {
    Server.default_config with
    Server.domains = Some domains;
    queue_capacity = queue;
    conn_deadline_ms = deadline_ms;
  }

let with_server config f =
  let t = Server.create ~config () in
  let d = Domain.spawn (fun () -> Server.serve t) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Domain.join d)
    (fun () -> f t (Server.port t))

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send fd lines =
  let w = F.writer fd in
  List.iter (F.enqueue w) lines;
  match F.flush_blocking w with
  | F.Flushed -> ()
  | F.Blocked | F.Closed -> Alcotest.fail "client write failed"

let half_close fd = Unix.shutdown fd Unix.SHUTDOWN_SEND

let recv_until_eof r =
  let acc = ref [] in
  let eof = ref false in
  while not !eof do
    let res = F.poll r in
    acc := List.rev_append res.F.lines !acc;
    eof := res.F.eof
  done;
  List.rev !acc

(* Read until at least [n] lines have arrived (a poll may complete
   several at once, so more can come back). *)
let recv_n r n =
  let acc = ref [] in
  let count = ref 0 in
  while !count < n do
    let res = F.poll r in
    acc := List.rev_append res.F.lines !acc;
    count := List.length !acc;
    if res.F.eof && !count < n then
      Alcotest.failf "peer closed after %d of %d responses" !count n
  done;
  List.rev !acc

(* One round trip over a fresh connection: send, half-close, read to
   eof, close. *)
let round_trip port lines =
  let fd = connect port in
  send fd lines;
  half_close fd;
  let got = recv_until_eof (F.reader fd) in
  Unix.close fd;
  got

(* A pipelined burst in one write, so the server reads it in one go:
   the whole burst is a single queued chunk. ([send] writes line by
   line, and a fast compile can answer the first line before the next
   one arrives.) *)
let round_trip_burst port lines = round_trip port [ String.concat "\n" lines ]

(* The reference bytes: what [dpopt engine] emits for these request
   lines — Engine.run_jobs with Seeder streams, rendered through the
   same Response surface. Servers must reproduce them exactly. *)
let reference_lines ?(default_seed = 42) raw_lines =
  E.with_engine ~domains:1 (fun eng ->
      let seeder = Seeder.create () in
      let wires =
        List.map
          (fun l ->
            match Rq.of_line l with
            | Stdlib.Ok (Rq.Query w) -> w
            | Stdlib.Ok (Rq.Stats _ | Rq.Session _) -> Alcotest.failf "reference line %S is an op verb" l
            | Stdlib.Error e ->
              Alcotest.failf "bad reference line %S: %s" l (Rq.wire_error_to_string e))
          raw_lines
      in
      let jobs =
        List.map
          (fun (w : Rq.wire) ->
            {
              E.request = w.Rq.request;
              stream = Seeder.stream seeder ~seed:(Option.value w.Rq.seed ~default:default_seed);
              budget = None;
              trace = None;
            })
          wires
      in
      E.run_jobs eng (Array.of_list jobs)
      |> Array.to_list
      |> List.map2
           (fun (w : Rq.wire) result ->
             match result with
             | Stdlib.Ok r -> Resp.to_line (Resp.of_engine ?id:w.Rq.id r)
             | Stdlib.Error e -> Resp.to_line (Resp.of_job_error ?id:w.Rq.id e))
           wires)

(* Pull a string field out of a response line via the JSON parser. *)
let json_field line path =
  match J.of_string line with
  | Stdlib.Error m -> Alcotest.failf "unparseable response %S: %s" line m
  | Stdlib.Ok json ->
    let rec walk json = function
      | [] -> J.to_str_opt json
      | k :: rest -> ( match J.member k json with None -> None | Some v -> walk v rest)
    in
    walk json path

let status_of line =
  match json_field line [ "status" ] with
  | Some s -> s
  | None -> Alcotest.failf "response without status: %S" line

(* ------------------------------------------------------------------ *)
(* Golden transcripts                                                  *)
(* ------------------------------------------------------------------ *)

(* Every protocol refusal, byte for byte: stable kinds, structured
   fields, human messages — the wire schema is frozen by this list. *)
let test_golden_rejections () =
  with_server (config ~domains:1 ()) (fun _ port ->
      let got =
        round_trip port
          [
            "v=2 n=4 alpha=1/2";
            "n=4 alpha=1/2";
            "v=1 n=4 alpha=1/2 color=red";
            "v=1 n=4";
            "v=1 junk";
            "v=1 id=q1 n=4 n=5 alpha=1/2";
            "v=1 id=bad! n=4 alpha=1/2";
            "v=1 n=4 alpha=3/2";
            "v=1 n=65 alpha=1/2";
            "v=1 op=subscribe sub=a n=65 input=0 alpha=1/2";
          ]
      in
      let expect =
        [
          {|{"v":1,"status":"error","error":{"kind":"unsupported_version","got":"2","msg":"unsupported protocol version \"2\" (this server speaks v=1)"}}|};
          {|{"v":1,"status":"error","error":{"kind":"unsupported_version","msg":"missing protocol version (every request line starts with v=1)"}}|};
          {|{"v":1,"status":"error","error":{"kind":"unknown_key","key":"color","msg":"unknown key \"color\" (v=1 knows v, op, id, seed, n, alpha, loss, side, input, count, sub, budget)"}}|};
          {|{"v":1,"status":"error","error":{"kind":"invalid","msg":"missing field alpha="}}|};
          {|{"v":1,"status":"error","error":{"kind":"malformed","msg":"expected key=value, got \"junk\""}}|};
          {|{"v":1,"status":"error","error":{"kind":"malformed","msg":"duplicate key \"n\""}}|};
          {|{"v":1,"status":"error","error":{"kind":"malformed","msg":"id \"bad!\" must be 1-64 chars of [A-Za-z0-9._:-]"}}|};
          {|{"v":1,"status":"error","error":{"kind":"invalid","msg":"alpha must lie strictly between 0 and 1"}}|};
          {|{"v":1,"status":"error","error":{"kind":"invalid","msg":"n 65 exceeds the cap of 64"}}|};
          {|{"v":1,"status":"error","error":{"kind":"invalid","msg":"n 65 exceeds the cap of 64"}}|};
        ]
      in
      Alcotest.(check (list string)) "golden rejection transcript" expect got)

(* The consistency half of the same property: whatever of_line refuses,
   the server's bytes are exactly the unified Response rendering of
   that refusal — no second error schema can creep in. *)
let test_rejections_match_response_surface () =
  let lines =
    [ "v=3 n=9"; "v=1 n=4 alpha=1/2 extra=1"; "v=1 =x"; "v=1 n=4 alpha=0" ]
  in
  let expect =
    List.map
      (fun l ->
        match Rq.of_line l with
        | Stdlib.Ok _ -> Alcotest.failf "line unexpectedly parsed: %S" l
        | Stdlib.Error e -> Resp.to_line (Resp.of_wire_error e))
      lines
  in
  with_server (config ~domains:1 ()) (fun _ port ->
      Alcotest.(check (list string))
        "server bytes = Response.of_wire_error bytes" expect (round_trip port lines))

(* The request file every determinism test shares: distinct ids so
   responses can be matched up across connection splits, distinct
   seeds so a line's stream is a function of its own seed alone. *)
let request_file =
  [
    "v=1 id=r0 seed=101 n=5 alpha=1/3 count=4";
    "v=1 id=r1 seed=102 n=6 alpha=1/2 loss=squared count=3";
    "v=1 id=r2 seed=103 n=4 alpha=2/5 side=>=1 count=5";
    "v=1 id=r3 seed=104 n=6 alpha=1/2 loss=deadzone:1 side=2-5 input=3 count=2";
    "v=1 id=r4 seed=105 n=5 alpha=1/4 loss=capped:2 count=4";
    "v=1 id=r5 seed=106 n=4 alpha=1/3 loss=zero-one count=6";
  ]

let test_served_lines_match_engine () =
  let expect = reference_lines request_file in
  with_server (config ~domains:2 ()) (fun _ port ->
      let got = round_trip port request_file in
      Alcotest.(check (list string)) "server bytes = engine bytes" expect got;
      List.iter
        (fun line ->
          match status_of line with
          | "ok" | "degraded" -> ()
          | s -> Alcotest.failf "unexpected status %S in %S" s line)
        got)

(* Split the same file across three concurrent connections against a
   three-worker pool: after matching responses back up by id, the
   bytes are identical to the one-connection, one-worker run. *)
let test_determinism_across_connections_and_workers () =
  let expect = List.sort compare (reference_lines request_file) in
  let chunks = [ [ List.nth request_file 0; List.nth request_file 1 ];
                 [ List.nth request_file 2; List.nth request_file 3 ];
                 [ List.nth request_file 4; List.nth request_file 5 ] ]
  in
  with_server (config ~domains:3 ()) (fun _ port ->
      let fds =
        List.map
          (fun lines ->
            let fd = connect port in
            send fd lines;
            half_close fd;
            fd)
          chunks
      in
      let got =
        List.concat_map
          (fun fd ->
            let lines = recv_until_eof (F.reader fd) in
            Unix.close fd;
            lines)
          fds
      in
      Alcotest.(check (list string))
        "3 connections x 3 workers = 1 connection x 1 worker, byte for byte" expect
        (List.sort compare got))

(* Telemetry must never leak into served bytes: the same request file
   over a live fake-clock recorder and over no recorder at all — the
   responses are identical, and identical to the engine's. *)
let test_bytes_identical_with_telemetry () =
  let expect = reference_lines request_file in
  let serve_with enabled =
    let go () =
      with_server (config ~domains:2 ()) (fun _ port -> round_trip port request_file)
    in
    if enabled then
      Obs.with_recorder (Obs.create ~clock:(Obs.Clock.Fake.clock (Obs.Clock.Fake.create ())) ()) go
    else begin
      let saved = Obs.current () in
      Obs.set_current None;
      Fun.protect ~finally:(fun () -> Obs.set_current saved) go
    end
  in
  Alcotest.(check (list string)) "telemetry off = engine bytes" expect (serve_with false);
  Alcotest.(check (list string)) "telemetry on = engine bytes" expect (serve_with true)

(* The op=stats admin verb, byte for byte. A fake clock pins every
   latency to zero and the single-connection transcript fixes every
   counter, so the whole response line — the JSON snapshot and the
   Prometheus text exposition riding in it — is golden. *)
let test_golden_stats () =
  let fake = Obs.Clock.Fake.create () in
  let r = Obs.create ~clock:(Obs.Clock.Fake.clock fake) () in
  let got =
    Obs.with_recorder r (fun () ->
        with_server (config ~domains:1 ()) (fun _ port ->
            let served =
              round_trip port
                [
                  "v=1 id=q1 seed=5 n=4 alpha=1/2 count=3";
                  "v=1 id=q2 seed=6 n=4 alpha=1/2 count=2";
                ]
            in
            Alcotest.(check int) "both queries served" 2 (List.length served);
            round_trip port [ "v=1 op=stats id=s1" ]))
  in
  let expect =
    [
      {|{"v":1,"status":"stats","id":"s1","stats":{"queue":{"depth":0,"capacity":64},"conns":{"accepted":2,"aborted":0},"requests":{"admitted":2,"responses":2,"degraded":0,"errors":0,"stats":1},"rejected":{"protocol":0,"overloaded":0,"deadline":0},"engine":{"requests":2,"samples":5},"lp":{"solves":1,"pivots":19,"warm_hits":0,"warm_misses":0,"refactorizations":1},"cache":{"hits":1,"misses":1,"evictions":0,"insertions":1,"bypassed":0},"store":{"hits":0,"misses":0,"corrupt":0,"writes":0,"probe_latency_us":null},"session":{"groups":0,"subscribers":0,"subscribes":0,"unsubscribes":0,"detached":0,"epochs":0,"served":0,"refused_budget":0,"checkpoints":0,"checkpoint_failed":0,"epoch_latency_us":null},"latency_us":{"window_ns":10000000000,"count":2,"p50_us":0,"p99_us":0,"p999_us":0,"max_us":0,"sum_us":0}},"prometheus":"# TYPE dpserved_queue_depth gauge\ndpserved_queue_depth 0\n# TYPE dpserved_queue_capacity gauge\ndpserved_queue_capacity 64\n# TYPE dpserved_connections_total counter\ndpserved_connections_total{event=\"accepted\"} 2\ndpserved_connections_total{event=\"aborted\"} 0\n# TYPE dpserved_requests_total counter\ndpserved_requests_total{outcome=\"admitted\"} 2\ndpserved_requests_total{outcome=\"responses\"} 2\ndpserved_requests_total{outcome=\"degraded\"} 0\ndpserved_requests_total{outcome=\"errors\"} 0\ndpserved_requests_total{outcome=\"stats\"} 1\n# TYPE dpserved_rejected_total counter\ndpserved_rejected_total{reason=\"protocol\"} 0\ndpserved_rejected_total{reason=\"overloaded\"} 0\ndpserved_rejected_total{reason=\"deadline\"} 0\n# TYPE dpserved_engine_requests_total counter\ndpserved_engine_requests_total 2\n# TYPE dpserved_engine_samples_total counter\ndpserved_engine_samples_total 5\n# TYPE dpserved_lp_events_total counter\ndpserved_lp_events_total{event=\"solves\"} 1\ndpserved_lp_events_total{event=\"pivots\"} 19\ndpserved_lp_events_total{event=\"warm_hits\"} 0\ndpserved_lp_events_total{event=\"warm_misses\"} 0\ndpserved_lp_events_total{event=\"refactorizations\"} 1\n# TYPE dpserved_cache_events_total counter\ndpserved_cache_events_total{event=\"hits\"} 1\ndpserved_cache_events_total{event=\"misses\"} 1\ndpserved_cache_events_total{event=\"evictions\"} 0\ndpserved_cache_events_total{event=\"insertions\"} 1\ndpserved_cache_events_total{event=\"bypassed\"} 0\n# TYPE dpserved_store_events_total counter\ndpserved_store_events_total{event=\"hits\"} 0\ndpserved_store_events_total{event=\"misses\"} 0\ndpserved_store_events_total{event=\"corrupt\"} 0\ndpserved_store_events_total{event=\"writes\"} 0\n# TYPE dpserved_session_groups gauge\ndpserved_session_groups 0\n# TYPE dpserved_session_subscribers gauge\ndpserved_session_subscribers 0\n# TYPE dpserved_session_events_total counter\ndpserved_session_events_total{event=\"subscribes\"} 0\ndpserved_session_events_total{event=\"unsubscribes\"} 0\ndpserved_session_events_total{event=\"detached\"} 0\ndpserved_session_events_total{event=\"epochs\"} 0\ndpserved_session_events_total{event=\"served\"} 0\ndpserved_session_events_total{event=\"refused_budget\"} 0\ndpserved_session_events_total{event=\"checkpoints\"} 0\ndpserved_session_events_total{event=\"checkpoint_failed\"} 0\n# TYPE dpserved_store_probe_microseconds summary\ndpserved_store_probe_microseconds{quantile=\"0.5\"} 0\ndpserved_store_probe_microseconds{quantile=\"0.99\"} 0\ndpserved_store_probe_microseconds{quantile=\"0.999\"} 0\ndpserved_store_probe_microseconds_sum 0\ndpserved_store_probe_microseconds_count 0\n# TYPE dpserved_session_epoch_microseconds summary\ndpserved_session_epoch_microseconds{quantile=\"0.5\"} 0\ndpserved_session_epoch_microseconds{quantile=\"0.99\"} 0\ndpserved_session_epoch_microseconds{quantile=\"0.999\"} 0\ndpserved_session_epoch_microseconds_sum 0\ndpserved_session_epoch_microseconds_count 0\n# TYPE dpserved_latency_microseconds summary\ndpserved_latency_microseconds{quantile=\"0.5\"} 0\ndpserved_latency_microseconds{quantile=\"0.99\"} 0\ndpserved_latency_microseconds{quantile=\"0.999\"} 0\ndpserved_latency_microseconds_sum 0\ndpserved_latency_microseconds_count 2\n"}|};
    ]
  in
  Alcotest.(check (list string)) "golden stats transcript" expect got

(* op=stats takes only id=; anything else is refused with a typed
   invalid, and unknown ops name the verb the server does know. *)
let test_stats_grammar_rejections () =
  with_server (config ~domains:1 ()) (fun _ port ->
      let got =
        round_trip port [ "v=1 op=stats n=4"; "v=1 op=flush" ]
      in
      let expect =
        [
          {|{"v":1,"status":"error","error":{"kind":"invalid","msg":"op=stats takes no n= (only id=)"}}|};
          {|{"v":1,"status":"error","error":{"kind":"invalid","msg":"unknown op \"flush\" (this server knows op=stats, subscribe, release, unsubscribe, ledger)"}}|};
        ]
      in
      Alcotest.(check (list string)) "stats grammar rejections" expect got)

(* Protocol errors are answered immediately; served responses follow
   in admission order — the documented interleaving. *)
let test_error_ordering () =
  let ok0 = "v=1 id=m0 seed=301 n=4 alpha=1/2 count=2" in
  let ok1 = "v=1 id=m1 seed=302 n=4 alpha=1/3 count=2" in
  let expect_err =
    {|{"v":1,"status":"error","error":{"kind":"malformed","msg":"expected key=value, got \"bogus\""}}|}
  in
  let expect = expect_err :: reference_lines [ ok0; ok1 ] in
  with_server (config ~domains:1 ()) (fun _ port ->
      let got = round_trip_burst port [ ok0; "v=1 bogus"; ok1 ] in
      Alcotest.(check (list string)) "errors first, then served responses in order" expect got)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

(* A queue bound of 1 under a burst of 8: some requests serve, the
   rest are refused with the typed overloaded response — immediately,
   with every request answered (never a hang, never a silent drop). *)
let test_overload_refusal () =
  let ids = List.init 8 (fun k -> Printf.sprintf "o%d" k) in
  let lines =
    List.map (fun id -> Printf.sprintf "v=1 id=%s seed=400 n=6 alpha=1/2 count=4" id) ids
  in
  with_server (config ~domains:1 ~queue:1 ()) (fun _ port ->
      let got = round_trip port lines in
      Alcotest.(check int) "every request answered" 8 (List.length got);
      let seen =
        List.map
          (fun line ->
            match json_field line [ "id" ] with
            | Some id -> id
            | None -> Alcotest.failf "response without id: %S" line)
          got
      in
      Alcotest.(check (list string)) "each id answered exactly once" ids (List.sort compare seen);
      let served, refused =
        List.partition (fun line -> status_of line <> "error") got
      in
      List.iter
        (fun line ->
          let id = Option.value (json_field line [ "id" ]) ~default:"?" in
          let expect =
            Printf.sprintf
              {|{"v":1,"status":"error","id":"%s","error":{"kind":"overloaded","pending":1,"capacity":1,"msg":"pending queue full (1/1); retry later"}}|}
              id
          in
          Alcotest.(check string) "typed overloaded refusal" expect line)
        refused;
      if served = [] then Alcotest.fail "admission control refused everything";
      if refused = [] then Alcotest.fail "burst of 8 against queue=1 refused nothing")

(* An expired connection deadline refuses with deadline_exceeded. *)
let test_deadline_refusal () =
  with_server (config ~domains:1 ~deadline_ms:1 ()) (fun _ port ->
      let fd = connect port in
      Unix.sleepf 0.05;
      send fd [ "v=1 id=d1 n=4 alpha=1/2" ];
      half_close fd;
      let got = recv_until_eof (F.reader fd) in
      Unix.close fd;
      let expect =
        [
          {|{"v":1,"status":"error","id":"d1","error":{"kind":"deadline_exceeded","msg":"connection deadline exceeded"}}|};
        ]
      in
      Alcotest.(check (list string)) "typed deadline refusal" expect got)

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)
(* ------------------------------------------------------------------ *)

(* stop() while requests are in flight: the listener closes to new
   connections, but every admitted request is still answered and
   flushed — with exactly the reference bytes. *)
let test_drain_on_stop () =
  let lines =
    [
      "v=1 id=d0 seed=501 n=5 alpha=1/3 count=3";
      "v=1 id=d1 seed=502 n=4 alpha=1/2 count=3";
      "v=1 id=d2 seed=503 n=4 alpha=2/5 count=3";
    ]
  in
  let expect = reference_lines lines in
  with_server (config ~domains:1 ()) (fun t port ->
      let fd = connect port in
      let r = F.reader fd in
      send fd lines;
      (* Wait for the first response — proof the connection was
         accepted and its requests admitted — before asking for the
         drain; a connection still sitting in the listen backlog at
         stop() time is fair game to drop. *)
      let first = recv_n r 1 in
      Server.stop t;
      let rest = recv_n r (3 - List.length first) in
      Alcotest.(check (list string))
        "in-flight requests drain with reference bytes" expect (first @ rest);
      let rec expect_refused attempts =
        if attempts = 0 then Alcotest.fail "listener still accepting after stop"
        else
          match connect port with
          | probe ->
            Unix.close probe;
            Unix.sleepf 0.02;
            expect_refused (attempts - 1)
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
      in
      expect_refused 100;
      Unix.close fd)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let test_framing_round_trip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let w = F.writer a in
  F.enqueue w "alpha";
  F.enqueue w "beta\r";
  (match F.flush_blocking w with
   | F.Flushed -> ()
   | F.Blocked | F.Closed -> Alcotest.fail "flush failed");
  Unix.close a;
  let got = recv_until_eof (F.reader b) in
  Unix.close b;
  Alcotest.(check (list string)) "lines framed, CR stripped" [ "alpha"; "beta" ] got

(* An unterminated line past max_line is flagged as overflow rather
   than buffered without bound. *)
let test_framing_overflow () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let w = F.writer a in
  F.enqueue w (String.make 6000 'x');
  (match F.flush_blocking w with
   | F.Flushed -> ()
   | F.Blocked | F.Closed -> Alcotest.fail "flush failed");
  Unix.close a;
  let r = F.reader ~max_line:256 b in
  let overflowed = ref false in
  let eof = ref false in
  while not !eof do
    let res = F.poll r in
    if res.F.overflow then overflowed := true;
    eof := res.F.eof
  done;
  Unix.close b;
  Alcotest.(check bool) "oversized unterminated line flagged" true !overflowed

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

module Sess = Minimax_dp.Session
module Cert = Minimax_dp.Session.Certificate
module ML = Minimax.Multi_level

let q = Rat.of_ints

let json_of line =
  match J.of_string line with
  | Stdlib.Ok j -> j
  | Stdlib.Error m -> Alcotest.failf "unparseable response %S: %s" line m

let json_at line path =
  let rec walk j = function
    | [] -> j
    | k :: rest -> (
      match J.member k j with
      | Some v -> walk v rest
      | None -> Alcotest.failf "response %S lacks %s" line (String.concat "." path))
  in
  walk (json_of line) path

let int_at line path =
  match J.to_int_opt (json_at line path) with
  | Some i -> i
  | None -> Alcotest.failf "field %s of %S is not an int" (String.concat "." path) line

let check_rat_field label expect line path =
  Alcotest.(check string)
    label
    (J.to_string (J.rat expect))
    (J.to_string (json_at line path))

let values_json a = J.to_string (J.List (Array.to_list (Array.map (fun v -> J.Int v) a)))

(* The full wire lifecycle across two connections: three subscribers at
   three privacy levels share one group, every op=release serves all
   rungs from a single correlated draw — the pure function of
   (seed, group, epoch) — pushes land with subscribe-time ids, the
   ledger refuses an over-budget subscriber with a typed
   budget_exhausted line, and the certificate that crossed the wire
   replays green. *)
let test_session_lifecycle () =
  let group = Sess.group_key ~n:6 ~input:3 in
  let levels = [ q 1 3; q 1 2; q 2 3 ] in
  let plan = ML.make_plan ~n:6 ~levels in
  let draw epoch =
    ML.release plan ~true_result:3 (Sess.epoch_stream ~seed:42 ~group ~epoch)
  in
  with_server (config ~domains:2 ()) (fun _ port ->
      let fa = connect port and fb = connect port in
      let ra = F.reader fa and rb = F.reader fb in
      send fa
        [
          "v=1 op=subscribe id=sa sub=alice n=6 input=3 alpha=1/3";
          "v=1 op=subscribe id=sc sub=carol n=6 input=3 alpha=2/3";
        ];
      (match recv_n ra 2 with
      | [ la; lc ] ->
        Alcotest.(check string) "alice subscribed" "subscribed" (status_of la);
        check_rat_field "ledger opens at 1" Rat.one la [ "session"; "spent" ];
        Alcotest.(check string) "carol subscribed" "subscribed" (status_of lc)
      | _ -> Alcotest.fail "expected two subscribe acks");
      send fb [ "v=1 op=subscribe id=sb sub=bob n=6 input=3 alpha=1/2 budget=1/4" ];
      ignore (recv_n rb 1);
      (* Epoch 0, called from connection B: B gets the summary first,
         then its own push; A gets alice's and carol's pushes. *)
      send fb [ "v=1 op=release id=e0 n=6 input=3" ];
      let b_lines = recv_n rb 2 and a_lines = recv_n ra 2 in
      let summary = List.nth b_lines 0 in
      Alcotest.(check string) "summary status" "released" (status_of summary);
      let expect0 = draw 0 in
      Alcotest.(check string)
        "wire values = the epoch-0 draw" (values_json expect0)
        (J.to_string (json_at summary [ "release"; "values" ]));
      (match Cert.of_json (json_at summary [ "release"; "certificate" ]) with
      | Stdlib.Error m -> Alcotest.failf "wire certificate unparseable: %s" m
      | Stdlib.Ok cert -> (
        match Cert.replay cert with
        | Stdlib.Ok () -> ()
        | Stdlib.Error rule -> Alcotest.failf "wire certificate replays red: %s" rule));
      let check_push line ~id ~sub ~idx =
        Alcotest.(check string) (sub ^ " push status") "release" (status_of line);
        Alcotest.(check (option string))
          (sub ^ " push carries its subscribe-time id")
          (Some id) (json_field line [ "id" ]);
        Alcotest.(check (option string)) (sub ^ " push sub") (Some sub)
          (json_field line [ "sub" ]);
        Alcotest.(check int)
          (sub ^ " rung served off the shared draw")
          expect0.(idx)
          (int_at line [ "value" ])
      in
      check_push (List.nth b_lines 1) ~id:"sb" ~sub:"bob" ~idx:1;
      check_push (List.nth a_lines 0) ~id:"sa" ~sub:"alice" ~idx:0;
      check_push (List.nth a_lines 1) ~id:"sc" ~sub:"carol" ~idx:2;
      (* Epoch 1, called from A: bob's spend hits the floor exactly
         (1/2 · 1/2 = 1/4, not below it), so he is still served. *)
      send fa [ "v=1 op=release id=e1 n=6 input=3" ];
      let a1 = recv_n ra 3 and b1 = recv_n rb 1 in
      Alcotest.(check string) "epoch 1 summary" "released" (status_of (List.nth a1 0));
      Alcotest.(check string)
        "epoch 1 values = the epoch-1 draw" (values_json (draw 1))
        (J.to_string (json_at (List.nth a1 0) [ "release"; "values" ]));
      Alcotest.(check string) "bob still served at the floor" "release"
        (status_of (List.nth b1 0));
      (* Epoch 2: 1/4 · 1/2 < 1/4 — bob's line is the typed
         budget_exhausted refusal, byte-exact, and his ledger is not
         charged. *)
      send fa [ "v=1 op=release id=e2 n=6 input=3" ];
      let a2 = recv_n ra 3 and b2 = recv_n rb 1 in
      Alcotest.(check string) "epoch 2 summary" "released" (status_of (List.nth a2 0));
      let expect_refusal =
        Resp.to_line
          (Resp.error ~id:"sb"
             (Resp.Budget_exhausted { sub = "bob"; group; spent = q 1 4; floor = q 1 4 }))
      in
      Alcotest.(check string) "typed budget_exhausted push" expect_refusal (List.nth b2 0);
      send fb [ "v=1 op=ledger id=lb sub=bob n=6 input=3" ];
      let lb = List.nth (recv_n rb 1) 0 in
      check_rat_field "refusal charged nothing" (q 1 4) lb [ "session"; "spent" ];
      Alcotest.(check int) "bob served twice" 2 (int_at lb [ "session"; "served" ]);
      Alcotest.(check int) "bob refused once" 1 (int_at lb [ "session"; "refusals" ]);
      send fa [ "v=1 op=ledger id=la sub=alice n=6 input=3" ];
      let la = List.nth (recv_n ra 1) 0 in
      check_rat_field "alice spent (1/3)^3" (q 1 27) la [ "session"; "spent" ];
      Alcotest.(check int) "three epochs on the ledger" 3 (int_at la [ "session"; "epoch" ]);
      send fa [ "v=1 op=unsubscribe id=ua sub=alice n=6 input=3" ];
      let ua = List.nth (recv_n ra 1) 0 in
      Alcotest.(check string) "unsubscribed" "unsubscribed" (status_of ua);
      Alcotest.(check string) "inactive after unsubscribe" "false"
        (J.to_string (json_at ua [ "session"; "active" ]));
      half_close fa;
      half_close fb;
      ignore (recv_until_eof ra);
      ignore (recv_until_eof rb);
      Unix.close fa;
      Unix.close fb)

(* The whole session transcript — subscribes, two epochs, a ledger
   probe, an unsubscribe — is byte-identical for every worker count:
   session verbs are answered inline on the event loop and the epoch
   draw is a pure function, so the pool size can never show through. *)
let test_session_bytes_across_workers () =
  let lines =
    [
      "v=1 op=subscribe id=s1 sub=ada n=5 input=2 alpha=1/3";
      "v=1 op=subscribe id=s2 sub=bea n=5 input=2 alpha=1/2";
      "v=1 op=release id=e0 n=5 input=2";
      "v=1 op=release id=e1 n=5 input=2";
      "v=1 op=ledger id=l1 sub=ada n=5 input=2";
      "v=1 op=unsubscribe id=u1 sub=ada n=5 input=2";
    ]
  in
  let serve domains =
    with_server (config ~domains ()) (fun _ port -> round_trip port lines)
  in
  let one = serve 1 in
  Alcotest.(check int) "2 acks + 2x(summary+2 pushes) + ledger + unsub" 10
    (List.length one);
  Alcotest.(check (list string)) "1 worker = 3 workers, byte for byte" one (serve 3)

(* Warm restart against --session-store: ledgers and epoch counters
   survive the drain as a verified checkpoint frame, a returning
   subscriber resumes its spend (zero double-spend), and the epoch
   chain continues byte-identically with an uninterrupted run. *)
let test_session_warm_restart () =
  let store = Filename.temp_file "dpsession" ".frame" in
  Sys.remove store;
  Fun.protect ~finally:(fun () -> if Sys.file_exists store then Sys.remove store)
  @@ fun () ->
  let cfg = { (config ~domains:1 ()) with Server.session_store = Some store } in
  let phase lines = with_server cfg (fun _ port -> round_trip port lines) in
  let sub = "v=1 op=subscribe id=s sub=ada n=5 input=2 alpha=1/2" in
  let rel id = Printf.sprintf "v=1 op=release id=%s n=5 input=2" id in
  let first = phase [ sub; rel "e0" ] in
  Alcotest.(check int) "first run answers ack + summary + push" 3 (List.length first);
  let second =
    phase [ "v=1 op=ledger id=l sub=ada n=5 input=2"; sub; rel "e1";
            "v=1 op=ledger id=l2 sub=ada n=5 input=2" ]
  in
  let led = List.nth second 0 in
  check_rat_field "spend survives the restart" (q 1 2) led [ "session"; "spent" ];
  Alcotest.(check int) "epoch counter survives" 1 (int_at led [ "session"; "epoch" ]);
  Alcotest.(check string) "inactive until re-subscribed" "false"
    (J.to_string (json_at led [ "session"; "active" ]));
  check_rat_field "re-subscribe keeps the spend — zero double-spend" (q 1 2)
    (List.nth second 1) [ "session"; "spent" ];
  let summary = List.nth second 2 in
  Alcotest.(check int) "epochs continue where they left off" 1
    (int_at summary [ "release"; "epoch" ]);
  let plan = ML.make_plan ~n:5 ~levels:[ q 1 2 ] in
  let expect1 =
    ML.release plan ~true_result:2
      (Sess.epoch_stream ~seed:42 ~group:(Sess.group_key ~n:5 ~input:2) ~epoch:1)
  in
  Alcotest.(check string) "epoch 1 byte-derived from the resumed chain"
    (values_json expect1)
    (J.to_string (json_at summary [ "release"; "values" ]));
  check_rat_field "spend composes across the restart" (q 1 4) (List.nth second 4)
    [ "session"; "spent" ];
  (* And the restarted epoch-1 lines are byte-identical to an
     uninterrupted run's. *)
  let uninterrupted =
    with_server (config ~domains:1 ()) (fun _ port ->
        round_trip port [ sub; rel "e0"; rel "e1" ])
  in
  Alcotest.(check (list string)) "restart = uninterrupted, byte for byte"
    [ List.nth uninterrupted 3; List.nth uninterrupted 4 ]
    [ List.nth second 2; List.nth second 3 ]

(* Session grammar refusals are the unified Response rendering of
   of_line's wire errors — and semantic refusals from the service
   itself come back as typed invalids. *)
let test_session_grammar_rejections () =
  let parse_lines =
    [
      "v=1 sub=alice n=4 alpha=1/2";
      "v=1 op=release n=4 input=2 alpha=1/2";
      "v=1 op=subscribe id=x sub=bad! n=4 input=2 alpha=1/2";
      "v=1 op=subscribe sub=alice n=4 input=2";
      "v=1 op=ledger sub=alice input=2";
    ]
  in
  let expect =
    List.map
      (fun l ->
        match Rq.of_line l with
        | Stdlib.Ok _ -> Alcotest.failf "line unexpectedly parsed: %S" l
        | Stdlib.Error e -> Resp.to_line (Resp.of_wire_error e))
      parse_lines
  in
  with_server (config ~domains:1 ()) (fun _ port ->
      Alcotest.(check (list string))
        "session grammar = Response surface" expect (round_trip port parse_lines);
      let got =
        round_trip port
          [
            "v=1 op=subscribe id=z sub=zoe n=4 input=9 alpha=1/2";
            "v=1 op=release n=4 input=2";
            "v=1 op=ledger sub=ghost n=4 input=2";
          ]
      in
      List.iter
        (fun l ->
          Alcotest.(check string) "refused" "error" (status_of l);
          Alcotest.(check (option string))
            "semantic refusals are typed invalids" (Some "invalid")
            (json_field l [ "error"; "kind" ]))
        got)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "golden rejection transcript" `Quick test_golden_rejections;
          Alcotest.test_case "rejections match Response surface" `Quick
            test_rejections_match_response_surface;
          Alcotest.test_case "error ordering" `Quick test_error_ordering;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "served lines match engine" `Quick test_served_lines_match_engine;
          Alcotest.test_case "bytes identical with telemetry on/off" `Quick
            test_bytes_identical_with_telemetry;
          Alcotest.test_case "connection splits and worker counts" `Quick
            test_determinism_across_connections_and_workers;
        ] );
      ( "admission",
        [
          Alcotest.test_case "overload refusal" `Quick test_overload_refusal;
          Alcotest.test_case "deadline refusal" `Quick test_deadline_refusal;
        ] );
      ( "stats",
        [
          Alcotest.test_case "golden op=stats transcript" `Quick test_golden_stats;
          Alcotest.test_case "stats grammar rejections" `Quick test_stats_grammar_rejections;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "wire lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "bytes identical across worker counts" `Quick
            test_session_bytes_across_workers;
          Alcotest.test_case "warm restart, zero double-spend" `Quick
            test_session_warm_restart;
          Alcotest.test_case "session grammar rejections" `Quick
            test_session_grammar_rejections;
        ] );
      ("shutdown", [ Alcotest.test_case "drain on stop" `Quick test_drain_on_stop ]);
      ( "framing",
        [
          Alcotest.test_case "round trip" `Quick test_framing_round_trip;
          Alcotest.test_case "overflow" `Quick test_framing_overflow;
        ] );
    ]
