(* Tests for lib/obs: deterministic spans under a fake clock, counter
   and histogram semantics (including merge), byte-exact golden output
   for the JSON-lines and Chrome-trace sinks, no-op behavior when
   disabled, the JSON parser, and an end-to-end check that the bench
   binary's --bench-json trajectory round-trips through Json.of_string. *)

module C = Obs.Clock
module H = Obs.Histogram
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* A canonical deterministic recorder shared by the golden tests       *)
(* ------------------------------------------------------------------ *)

(* Two nested spans, one counter, one histogram, all against a fake
   clock that starts at 0 and advances in round microsecond steps so
   the Chrome µs timestamps are exact. *)
let canonical () =
  let fake = C.Fake.create () in
  let r = Obs.create ~clock:(C.Fake.clock fake) () in
  Obs.with_recorder r (fun () ->
      Obs.span
        ~attrs:[ ("n", Obs.Int 7); ("alpha", Obs.Rat (Rat.of_ints 1 2)) ]
        "solve.outer"
        (fun () ->
          C.Fake.advance fake 100_000L;
          Obs.span "solve.inner" (fun () -> C.Fake.advance fake 50_000L);
          C.Fake.advance fake 25_000L);
      Obs.incr "lp.solves";
      Obs.incr ~by:2 "lp.solves";
      Obs.observe "bits" 3;
      Obs.observe "bits" 5);
  r

(* ------------------------------------------------------------------ *)
(* Spans under the fake clock                                          *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let r = canonical () in
  match Obs.spans r with
  | [ inner; outer ] ->
    (* completion order: the child closes first *)
    Alcotest.(check string) "inner name" "solve.inner" inner.Obs.name;
    Alcotest.(check int64) "inner start" 100_000L inner.Obs.start_ns;
    Alcotest.(check int64) "inner dur" 50_000L inner.Obs.dur_ns;
    Alcotest.(check int) "inner depth" 1 inner.Obs.depth;
    Alcotest.(check string) "outer name" "solve.outer" outer.Obs.name;
    Alcotest.(check int64) "outer start" 0L outer.Obs.start_ns;
    Alcotest.(check int64) "outer dur" 175_000L outer.Obs.dur_ns;
    Alcotest.(check int) "outer depth" 0 outer.Obs.depth
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_sequential () =
  (* Two siblings at the same depth do not overlap and both record. *)
  let fake = C.Fake.create ~now:5_000L () in
  let r = Obs.create ~clock:(C.Fake.clock fake) () in
  Obs.with_recorder r (fun () ->
      Obs.span "a" (fun () -> C.Fake.advance fake 10L);
      Obs.span "b" (fun () -> C.Fake.advance fake 20L));
  (match Obs.spans r with
   | [ a; b ] ->
     Alcotest.(check int64) "a start" 5_000L a.Obs.start_ns;
     Alcotest.(check int64) "a dur" 10L a.Obs.dur_ns;
     Alcotest.(check int64) "b start" 5_010L b.Obs.start_ns;
     Alcotest.(check int64) "b dur" 20L b.Obs.dur_ns;
     Alcotest.(check int) "a depth" 0 a.Obs.depth;
     Alcotest.(check int) "b depth" 0 b.Obs.depth
   | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans))

let test_span_records_on_exception () =
  let fake = C.Fake.create () in
  let r = Obs.create ~clock:(C.Fake.clock fake) () in
  (try
     Obs.with_recorder r (fun () ->
         Obs.span "boom" (fun () ->
             C.Fake.advance fake 42L;
             failwith "expected"))
   with Failure _ -> ());
  (match Obs.spans r with
   | [ s ] ->
     Alcotest.(check string) "name" "boom" s.Obs.name;
     Alcotest.(check int64) "dur" 42L s.Obs.dur_ns
   | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans));
  Alcotest.(check bool) "recorder removed after with_recorder" false (Obs.enabled ())

(* ------------------------------------------------------------------ *)
(* Counters and histograms                                             *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  let r = canonical () in
  Alcotest.(check int) "lp.solves" 3 (Obs.counter r "lp.solves");
  Alcotest.(check int) "missing counter" 0 (Obs.counter r "nope");
  Alcotest.(check (list (pair string int))) "sorted" [ ("lp.solves", 3) ] (Obs.counters r)

let test_histogram_stats () =
  let h = H.create () in
  Alcotest.(check int) "empty min" 0 (H.min h);
  Alcotest.(check int) "empty max" 0 (H.max h);
  List.iter (H.observe h) [ 3; 5; 0; 1000 ];
  Alcotest.(check int) "count" 4 (H.count h);
  Alcotest.(check int) "sum" 1008 (H.sum h);
  Alcotest.(check int) "min" 0 (H.min h);
  Alcotest.(check int) "max" 1000 (H.max h);
  (* buckets: 0 -> 0, 3 -> 2, 5 -> 3, 1000 -> 10 (2^9 <= 1000 < 2^10) *)
  Alcotest.(check (list (pair int int)))
    "buckets"
    [ (0, 1); (2, 1); (3, 1); (10, 1) ]
    (H.buckets h)

let test_merge () =
  let fake = C.Fake.create () in
  let a = Obs.create ~clock:(C.Fake.clock fake) () in
  let b = Obs.create ~clock:(C.Fake.clock fake) () in
  Obs.with_recorder a (fun () ->
      Obs.incr ~by:2 "shared";
      Obs.incr "only_a";
      Obs.observe "bits" 3);
  Obs.with_recorder b (fun () ->
      Obs.span "b.span" (fun () -> C.Fake.advance fake 10L);
      Obs.incr ~by:5 "shared";
      Obs.observe "bits" 9;
      Obs.observe "fresh" 1);
  Obs.merge_into ~into:a b;
  Alcotest.(check int) "shared summed" 7 (Obs.counter a "shared");
  Alcotest.(check int) "only_a kept" 1 (Obs.counter a "only_a");
  let bits = Option.get (Obs.histogram a "bits") in
  Alcotest.(check int) "bits count" 2 (H.count bits);
  Alcotest.(check int) "bits min" 3 (H.min bits);
  Alcotest.(check int) "bits max" 9 (H.max bits);
  Alcotest.(check int) "fresh copied" 1 (H.count (Option.get (Obs.histogram a "fresh")));
  (* spans never merge: timestamps only make sense against their own epoch *)
  Alcotest.(check int) "spans not merged" 0 (List.length (Obs.spans a));
  (* and the source is untouched *)
  Alcotest.(check int) "src intact" 5 (Obs.counter b "shared")

(* ------------------------------------------------------------------ *)
(* Sharded recorder                                                    *)
(* ------------------------------------------------------------------ *)

(* The same multiset of observations, recorded by one domain and split
   over four: the merged read-out must be identical, because counters
   add, histograms merge bucket-wise, and rolling slices sum keyed by
   absolute slice index — all order-insensitive. *)
let obs_work lo hi =
  for i = lo to hi do
    Obs.incr ~by:i "work";
    Obs.incr "events";
    Obs.observe "bits" i;
    Obs.observe_latency_ns "lat" (Int64.of_int (i * 1_000_000))
  done

let histo_readout r =
  List.map (fun (k, h) -> (k, H.count h, H.sum h, H.min h, H.max h, H.buckets h)) (Obs.histograms r)

let test_sharded_one_vs_n () =
  let r1 = Obs.create ~clock:(C.Fake.clock (C.Fake.create ())) () in
  Obs.with_recorder r1 (fun () -> obs_work 1 8);
  let rn = Obs.create ~clock:(C.Fake.clock (C.Fake.create ())) () in
  Obs.with_recorder rn (fun () ->
      let ds =
        List.init 4 (fun d -> Domain.spawn (fun () -> obs_work ((2 * d) + 1) ((2 * d) + 2)))
      in
      List.iter Domain.join ds);
  Alcotest.(check (list (pair string int))) "counters" (Obs.counters r1) (Obs.counters rn);
  Alcotest.(check bool) "histograms" true (histo_readout r1 = histo_readout rn);
  Alcotest.(check bool) "rolling windows" true (Obs.rollings r1 = Obs.rollings rn);
  Alcotest.(check int) "four shards really recorded" 36 (Obs.counter rn "work")

let test_merge_assoc_comm () =
  let mk salt =
    let r = Obs.create ~clock:(C.Fake.clock (C.Fake.create ())) () in
    Obs.with_recorder r (fun () ->
        Obs.incr ~by:salt "shared";
        Obs.incr (Printf.sprintf "only_%d" salt);
        Obs.observe "bits" salt;
        Obs.observe_latency_ns "lat" (Int64.of_int (salt * 1_000_000)));
    r
  in
  let readout r = (Obs.counters r, histo_readout r, Obs.rollings r) in
  let fresh () = Obs.create ~clock:(C.Fake.clock (C.Fake.create ())) () in
  let a = mk 1 and b = mk 2 and c = mk 3 in
  (* commutativity: a ⊕ b ⊕ c = c ⊕ b ⊕ a *)
  let fwd = fresh () and rev = fresh () in
  List.iter (fun r -> Obs.merge_into ~into:fwd r) [ a; b; c ];
  List.iter (fun r -> Obs.merge_into ~into:rev r) [ c; b; a ];
  Alcotest.(check bool) "commutative" true (readout fwd = readout rev);
  (* associativity: (a ⊕ b) ⊕ c = a ⊕ (b ⊕ c) *)
  let ab = fresh () and bc = fresh () in
  Obs.merge_into ~into:ab a;
  Obs.merge_into ~into:ab b;
  Obs.merge_into ~into:ab c;
  Obs.merge_into ~into:bc b;
  Obs.merge_into ~into:bc c;
  let a_bc = fresh () in
  Obs.merge_into ~into:a_bc a;
  Obs.merge_into ~into:a_bc bc;
  Alcotest.(check bool) "associative" true (readout ab = readout a_bc);
  (* sources untouched by being merged from *)
  Alcotest.(check int) "src intact" 2 (Obs.counter b "shared")

(* ------------------------------------------------------------------ *)
(* Rolling windows under the fake clock                                *)
(* ------------------------------------------------------------------ *)

let test_rolling_expiry () =
  let fake = C.Fake.create () in
  let r = Obs.create ~clock:(C.Fake.clock fake) () in
  Obs.with_recorder r (fun () ->
      let snap () =
        match Obs.rolling_value "lat" with
        | Some s -> s
        | None -> Alcotest.fail "rolling window missing"
      in
      (* 1500 µs lands in bucket 11, whose upper bound is 2^11-1. *)
      Obs.observe_latency_ns "lat" 1_500_000L;
      let s = snap () in
      Alcotest.(check int) "count" 1 s.Obs.Rolling.count;
      Alcotest.(check int) "sum" 1500 s.Obs.Rolling.sum_us;
      Alcotest.(check int) "max exact" 1500 s.Obs.Rolling.max_us;
      Alcotest.(check int) "p50 bucket bound" 2047 s.Obs.Rolling.p50_us;
      (* 5 s later both observations sit inside the 10 s window. *)
      C.Fake.advance fake 5_000_000_000L;
      Obs.observe_latency_ns "lat" 700_000L;
      let s = snap () in
      Alcotest.(check int) "both in window" 2 s.Obs.Rolling.count;
      Alcotest.(check int) "sum both" 2200 s.Obs.Rolling.sum_us;
      Alcotest.(check (list (pair int int)))
        "two buckets" [ (10, 1); (11, 1) ] s.Obs.Rolling.buckets;
      (* t = 11 s: the first observation has aged out, the second has not. *)
      C.Fake.advance fake 6_000_000_000L;
      let s = snap () in
      Alcotest.(check int) "first expired" 1 s.Obs.Rolling.count;
      Alcotest.(check int) "survivor sum" 700 s.Obs.Rolling.sum_us;
      Alcotest.(check int) "survivor max" 700 s.Obs.Rolling.max_us;
      Alcotest.(check int) "survivor p99" 1023 s.Obs.Rolling.p99_us;
      (* Far past the window: empty, quantiles zero. *)
      C.Fake.advance fake 20_000_000_000L;
      let s = snap () in
      Alcotest.(check int) "all expired" 0 s.Obs.Rolling.count;
      Alcotest.(check int) "empty p50" 0 s.Obs.Rolling.p50_us;
      Alcotest.(check (list (pair int int))) "no buckets" [] s.Obs.Rolling.buckets)

(* ------------------------------------------------------------------ *)
(* Disabled mode                                                       *)
(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  Obs.set_current None;
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  Alcotest.(check int) "span is transparent" 41 (Obs.span "ghost" (fun () -> 41));
  Obs.incr "ghost";
  Obs.observe "ghost" 7;
  Obs.observe_bits "ghost" (Rat.of_ints 355 113);
  Alcotest.(check int) "counter_value 0 when disabled" 0 (Obs.counter_value "ghost");
  (* installing a recorder afterwards starts from a clean slate *)
  let r = Obs.create ~clock:(C.Fake.clock (C.Fake.create ())) () in
  Obs.with_recorder r (fun () ->
      Alcotest.(check bool) "enabled inside" true (Obs.enabled ()));
  Alcotest.(check int) "nothing leaked in" 0 (List.length (Obs.counters r));
  Alcotest.(check int) "no spans leaked" 0 (List.length (Obs.spans r))

(* ------------------------------------------------------------------ *)
(* Golden sink output                                                  *)
(* ------------------------------------------------------------------ *)

let test_golden_json_lines () =
  let expected =
    String.concat "\n"
      [
        {|{"type":"span","name":"solve.inner","start_ns":100000,"dur_ns":50000,"depth":1,"attrs":{}}|};
        {|{"type":"span","name":"solve.outer","start_ns":0,"dur_ns":175000,"depth":0,"attrs":{"n":7,"alpha":"1/2"}}|};
        {|{"type":"counter","name":"lp.solves","value":3}|};
        {|{"type":"histogram","name":"bits","count":2,"sum":8,"min":3,"max":5,"buckets":[[2,1],[3,1]]}|};
        "";
      ]
  in
  Alcotest.(check string) "json lines" expected (Obs.to_json_lines (canonical ()))

let test_golden_chrome_trace () =
  let expected =
    {|{"traceEvents":[{"name":"solve.inner","cat":"solve","ph":"X","ts":100,"dur":50,"pid":1,"tid":1,"args":{"start_ns":100000,"dur_ns":50000}},{"name":"solve.outer","cat":"solve","ph":"X","ts":0,"dur":175,"pid":1,"tid":1,"args":{"start_ns":0,"dur_ns":175000,"n":7,"alpha":"1/2"}},{"name":"lp.solves","ph":"C","ts":175,"pid":1,"tid":1,"args":{"value":3}}],"displayTimeUnit":"ns"}|}
  in
  Alcotest.(check string) "chrome trace" expected (J.to_string (Obs.to_chrome_trace (canonical ())))

(* Two traced requests and one untraced span: each trace id gets its
   own lane (tid 2 and 3, announced by thread_name metadata), span ids
   count per trace with cross-stage parent links, and the untraced
   span stays on lane 1. Byte-exact. *)
let test_chrome_trace_lanes () =
  let fake = C.Fake.create () in
  let r = Obs.create ~clock:(C.Fake.clock fake) () in
  Obs.with_recorder r (fun () ->
      let ta = Obs.Trace.make "q1" and tb = Obs.Trace.make "q2" in
      Obs.with_trace ta (fun () ->
          Obs.span "server.admit" (fun () -> C.Fake.advance fake 1_000L));
      Obs.with_trace tb (fun () ->
          Obs.span "server.admit" (fun () -> C.Fake.advance fake 2_000L));
      (* a later stage of request q1, parented to its admission span *)
      Obs.with_trace ~parent:Obs.Trace.root ta (fun () ->
          Obs.span "engine.sample" (fun () -> C.Fake.advance fake 3_000L));
      Obs.span "server.batch" (fun () -> C.Fake.advance fake 4_000L));
  let expected =
    {|{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"trace q1"}},{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"trace q2"}},{"name":"server.admit","cat":"server","ph":"X","ts":0,"dur":1,"pid":1,"tid":2,"args":{"start_ns":0,"dur_ns":1000,"trace_id":"q1","span_id":1,"parent_id":0}},{"name":"server.admit","cat":"server","ph":"X","ts":1,"dur":2,"pid":1,"tid":3,"args":{"start_ns":1000,"dur_ns":2000,"trace_id":"q2","span_id":1,"parent_id":0}},{"name":"engine.sample","cat":"engine","ph":"X","ts":3,"dur":3,"pid":1,"tid":2,"args":{"start_ns":3000,"dur_ns":3000,"trace_id":"q1","span_id":2,"parent_id":1}},{"name":"server.batch","cat":"server","ph":"X","ts":6,"dur":4,"pid":1,"tid":1,"args":{"start_ns":6000,"dur_ns":4000}}],"displayTimeUnit":"ns"}|}
  in
  Alcotest.(check string) "per-request lanes" expected (J.to_string (Obs.to_chrome_trace r))

let test_chrome_trace_parses_back () =
  (* The trace document must be valid JSON with a traceEvents array in
     which every event carries the fields the trace viewers demand. *)
  match J.of_string (J.to_string (Obs.to_chrome_trace (canonical ()))) with
  | Error msg -> Alcotest.failf "trace does not parse: %s" msg
  | Ok doc -> (
    match J.member "traceEvents" doc with
    | Some (J.List events) ->
      Alcotest.(check int) "event count" 3 (List.length events);
      List.iter
        (fun ev ->
          List.iter
            (fun field ->
              if J.member field ev = None then Alcotest.failf "event missing %s" field)
            [ "name"; "ph"; "ts"; "pid"; "tid"; "args" ])
        events
    | _ -> Alcotest.fail "no traceEvents array")

let test_render_text () =
  let text = Obs.render_text (canonical ()) in
  List.iter
    (fun needle ->
      if not (Str.string_match (Str.regexp (".*" ^ Str.quote needle)) text 0
              || Str.search_forward (Str.regexp_string needle) text 0 >= 0)
      then Alcotest.failf "missing %S in render_text" needle)
    [ "solve.outer"; "solve.inner"; "lp.solves"; "n=2 min=3 max=5" ]

(* ------------------------------------------------------------------ *)
(* JSON parser                                                         *)
(* ------------------------------------------------------------------ *)

let json = Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (J.to_string j)) ( = )

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("null", J.Null);
        ("flag", J.Bool true);
        ("neg", J.Int (-42));
        ("s", J.Str "a\"b\\c\nd\te");
        ("empty_list", J.List []);
        ("empty_obj", J.Obj []);
        ("nested", J.List [ J.Int 1; J.Obj [ ("k", J.Str "v") ]; J.Bool false ]);
      ]
  in
  (match J.of_string (J.to_string doc) with
   | Ok parsed -> Alcotest.check json "compact roundtrip" doc parsed
   | Error msg -> Alcotest.failf "parse failed: %s" msg);
  (* the pretty form parses back to the same value too *)
  match J.of_string (Format.asprintf "%a" J.pp doc) with
  | Ok parsed -> Alcotest.check json "pretty roundtrip" doc parsed
  | Error msg -> Alcotest.failf "pretty parse failed: %s" msg

let test_json_parser_accepts () =
  let ok s v =
    match J.of_string s with
    | Ok parsed -> Alcotest.check json s v parsed
    | Error msg -> Alcotest.failf "%s should parse: %s" s msg
  in
  ok " [ 1 , 2 ] " (J.List [ J.Int 1; J.Int 2 ]);
  ok {|"snow❄"|} (J.Str "snow\xe2\x9d\x84");
  ok {|"é"|} (J.Str "\xc3\xa9");
  ok "-0" (J.Int 0);
  ok "{\"a\":{}}" (J.Obj [ ("a", J.Obj []) ])

let test_json_parser_rejects () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ "1.5"; "1e9"; "[1,2] trailing"; "{\"a\":}"; "\"unterminated"; "[1,]"; ""; "nul" ]

(* ------------------------------------------------------------------ *)
(* Bench trajectory round-trip                                         *)
(* ------------------------------------------------------------------ *)

(* End-to-end: the bench binary writes a trajectory file whose records
   carry the schema EXPERIMENTS.md documents, and the file parses with
   the same Json module that wrote it. Tests run in _build/default/test,
   so the bench executable is a sibling directory away. *)
let test_bench_trajectory_roundtrip () =
  let exe =
    List.find_opt Sys.file_exists
      [ "../bench/main.exe" (* dune runtest: cwd = _build/default/test *);
        "_build/default/bench/main.exe" (* manual run from the repo root *) ]
  in
  match exe with
  | None -> Alcotest.skip ()
  | Some exe ->
    begin
    let tmp = Filename.temp_file "bench" ".json" in
    let cmd = Printf.sprintf "%s --bench-json %s F1 > /dev/null" (Filename.quote exe) (Filename.quote tmp) in
    let rc = Sys.command cmd in
    Alcotest.(check int) "bench exit code" 0 rc;
    let contents =
      let ic = open_in_bin tmp in
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          Sys.remove tmp)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match J.of_string contents with
    | Error msg -> Alcotest.failf "trajectory does not parse: %s" msg
    | Ok doc ->
      Alcotest.(check (option string))
        "schema" (Some "minimax-dp/bench-trajectory")
        (Option.bind (J.member "schema" doc) J.to_str_opt);
      Alcotest.(check (option int)) "version" (Some 2)
        (Option.bind (J.member "version" doc) J.to_int_opt);
      (match Option.bind (J.member "git_rev" doc) J.to_str_opt with
       | Some rev -> Alcotest.(check bool) "git_rev non-empty" true (rev <> "")
       | None -> Alcotest.fail "trajectory missing git_rev stamp");
      (match Option.bind (J.member "host_cores" doc) J.to_int_opt with
       | Some c -> Alcotest.(check bool) "host_cores positive" true (c >= 1)
       | None -> Alcotest.fail "trajectory missing host_cores stamp");
      (match J.member "experiments" doc with
       | Some (J.List [ record ]) ->
         Alcotest.(check (option string)) "id" (Some "F1")
           (Option.bind (J.member "id" record) J.to_str_opt);
         let int_field k =
           match Option.bind (J.member k record) J.to_int_opt with
           | Some v -> v
           | None -> Alcotest.failf "record missing integer field %s" k
         in
         Alcotest.(check bool) "wall_ns non-negative" true (int_field "wall_ns" >= 0);
         List.iter
           (fun k -> ignore (int_field k))
           [ "wall_ms"; "pivots"; "max_coeff_bits"; "lp_solves" ];
         (match J.member "metrics" record with
          | Some (J.Obj _) -> ()
          | _ -> Alcotest.fail "metrics should be an object when observing")
       | _ -> Alcotest.fail "expected exactly one experiment record")
  end

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "sequential" `Quick test_span_sequential;
          Alcotest.test_case "exception-safe" `Quick test_span_records_on_exception;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "one vs N domains" `Quick test_sharded_one_vs_n;
          Alcotest.test_case "merge assoc/comm" `Quick test_merge_assoc_comm;
        ] );
      ( "rolling", [ Alcotest.test_case "fake-clock expiry" `Quick test_rolling_expiry ] );
      ( "sinks",
        [
          Alcotest.test_case "golden json lines" `Quick test_golden_json_lines;
          Alcotest.test_case "golden chrome trace" `Quick test_golden_chrome_trace;
          Alcotest.test_case "golden trace lanes" `Quick test_chrome_trace_lanes;
          Alcotest.test_case "trace parses back" `Quick test_chrome_trace_parses_back;
          Alcotest.test_case "render text" `Quick test_render_text;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "accepts" `Quick test_json_parser_accepts;
          Alcotest.test_case "rejects" `Quick test_json_parser_rejects;
        ] );
      ( "bench",
        [ Alcotest.test_case "trajectory roundtrip" `Slow test_bench_trajectory_roundtrip ] );
    ]
