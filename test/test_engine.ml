(* Tests for the serving engine: request canonicalization, the LRU
   mechanism cache, the Domain worker pool, compiled samplers, and the
   end-to-end determinism contract — byte-identical batch output for
   any worker count given the seed. *)

module En = Engine
module Rq = Engine.Request
module Ca = Engine.Cache
module Po = Engine.Pool
module Co = Engine.Compiled
module Rng = Prob.Rng
module M = Mech.Mechanism
module F = Resilience.Fault

let q = Rat.of_ints

let req ?(input = 0) ?(count = 1) ?(n = 5) ?(alpha = q 1 2) ?(loss = Rq.Absolute)
    ?(side = Rq.Full) () =
  match Rq.make ~input ~count ~n ~alpha ~loss ~side () with
  | Ok r -> r
  | Error m -> Alcotest.failf "fixture request rejected: %s" m

(* --------------------------------------------------------------- *)
(* Requests and canonical keys                                      *)
(* --------------------------------------------------------------- *)

let key r = Rq.canonical_key r

let test_canonical_collapses () =
  let base = key (req ()) in
  Alcotest.(check string) "deadzone:0 keys as absolute" base (key (req ~loss:(Rq.Deadzone 0) ()));
  Alcotest.(check string) "capped:c, c >= n keys as absolute" base
    (key (req ~loss:(Rq.Capped 7) ()));
  Alcotest.(check string) "asym:1,1 keys as absolute" base
    (key (req ~loss:(Rq.Asymmetric (q 1 1, q 1 1)) ()));
  Alcotest.(check string) ">=0 keys as full" base (key (req ~side:(Rq.At_least 0) ()));
  Alcotest.(check string) "0-n keys as full" base (key (req ~side:(Rq.Interval (0, 5)) ()));
  Alcotest.(check string) "all-member list keys as full" base
    (key (req ~side:(Rq.Members [ 3; 0; 1; 2; 5; 4 ]) ()));
  Alcotest.(check string) "input/count never enter the key" base (key (req ~input:3 ~count:9 ()));
  Alcotest.(check bool) "capped:c, c < n stays distinct" true
    (key (req ~loss:(Rq.Capped 2) ()) <> base);
  Alcotest.(check bool) "member order irrelevant" true
    (key (req ~side:(Rq.Members [ 4; 1; 1; 2 ]) ()) = key (req ~side:(Rq.Members [ 1; 2; 4 ]) ()))

let test_line_round_trip () =
  let line = "v=1 id=q-7 seed=9 n=6 alpha=1/2 loss=deadzone:1 side=2-5 input=3 count=12" in
  match Rq.of_line line with
  | Error e -> Alcotest.fail (Rq.wire_error_to_string e)
  | Ok (Rq.Stats _ | Rq.Session _) -> Alcotest.fail "parsed a query line as an op verb"
  | Ok (Rq.Query w) ->
    let r = w.Rq.request in
    Alcotest.(check string) "to_line inverts of_line" line
      (Rq.to_line ?id:w.Rq.id ?seed:w.Rq.seed r);
    Alcotest.(check (option string)) "id" (Some "q-7") w.Rq.id;
    Alcotest.(check (option int)) "seed" (Some 9) w.Rq.seed;
    Alcotest.(check int) "n" 6 r.Rq.n;
    Alcotest.(check int) "input" 3 r.Rq.input;
    Alcotest.(check int) "count" 12 r.Rq.count

let test_line_defaults_and_errors () =
  (match Rq.of_line "v=1 n=4 alpha=1/3 loss=squared side=>=1" with
  | Error e -> Alcotest.fail (Rq.wire_error_to_string e)
  | Ok (Rq.Stats _ | Rq.Session _) -> Alcotest.fail "parsed a query line as an op verb"
  | Ok (Rq.Query w) ->
    Alcotest.(check (option string)) "default id" None w.Rq.id;
    Alcotest.(check (option int)) "default seed" None w.Rq.seed;
    Alcotest.(check int) "default input" 0 w.Rq.request.Rq.input;
    Alcotest.(check int) "default count" 1 w.Rq.request.Rq.count);
  let rejects kind line =
    match Rq.of_line line with
    | Ok _ -> Alcotest.failf "accepted bad line: %s" line
    | Error e ->
      Alcotest.(check string) ("error kind of: " ^ line) kind (Rq.wire_error_kind e)
  in
  rejects "unsupported_version" "n=4 alpha=1/2 loss=absolute side=full"; (* v= missing *)
  rejects "unsupported_version" "alpha=1/2 loss=absolute side=full";  (* v= not first *)
  rejects "unsupported_version" "v=2 n=4 alpha=1/2 loss=absolute side=full";
  rejects "invalid" "v=1 alpha=1/2 loss=absolute side=full";          (* n missing *)
  rejects "invalid" "v=1 n=4 alpha=3/2 loss=absolute side=full";      (* alpha out of (0,1) *)
  rejects "invalid" "v=1 n=4 alpha=1/2 loss=absolute side=full input=9"; (* input range *)
  rejects "invalid" "v=1 n=4 alpha=1/2 loss=absolute side=full count=0";
  rejects "invalid" "v=1 n=4 alpha=1/2 loss=banana side=full";
  rejects "invalid" "v=1 n=4 alpha=1/2 loss=absolute side=7-2";       (* empty interval *)
  rejects "malformed" "v=1 n=4 alpha=1/2 loss=absolute side=full junk"; (* not key=value *)
  rejects "unknown_key" "v=1 n=4 alpha=1/2 loss=absolute side=full color=red";
  rejects "malformed" "v=1 n=4 n=5 alpha=1/2";                        (* duplicate key *)
  rejects "invalid" "v=1 n=65 alpha=1/2";                              (* n above max_n *)
  rejects "invalid" "v=1 op=subscribe sub=a n=65 input=0 alpha=1/2";
  (* n = max_n parses; nothing is compiled here. *)
  List.iter
    (fun line -> if Result.is_error (Rq.of_line line) then Alcotest.failf "refused %s" line)
    [ "v=1 n=64 alpha=1/2 input=64"; "v=1 op=subscribe sub=a n=64 input=0 alpha=1/2" ];
  rejects "malformed" "v=1 id=spaces! n=4 alpha=1/2"                  (* bad id charset *)

(* --------------------------------------------------------------- *)
(* Cache                                                            *)
(* --------------------------------------------------------------- *)

let test_cache_lru_eviction () =
  let c = Ca.create ~capacity:2 in
  Alcotest.(check (option int)) "cold miss" None (Ca.find c "a");
  Ca.add c "a" 1;
  Ca.add c "b" 2;
  Alcotest.(check (option int)) "hit bumps recency" (Some 1) (Ca.find c "a");
  Ca.add c "c" 3;
  Alcotest.(check bool) "LRU (b) evicted" false (Ca.mem c "b");
  Alcotest.(check bool) "recently-used (a) kept" true (Ca.mem c "a");
  Alcotest.(check (list string)) "keys MRU-first" [ "c"; "a" ] (Ca.keys c);
  Alcotest.(check int) "size" 2 (Ca.size c);
  Alcotest.(check int) "capacity" 2 (Ca.capacity c);
  let s = Ca.stats c in
  Alcotest.(check int) "hits" 1 s.Ca.hits;
  Alcotest.(check int) "misses" 1 s.Ca.misses;
  Alcotest.(check int) "evictions" 1 s.Ca.evictions;
  Alcotest.(check int) "insertions" 3 s.Ca.insertions

let test_cache_peek_neutral () =
  let c = Ca.create ~capacity:2 in
  Ca.add c "a" 1;
  Ca.add c "b" 2;
  Alcotest.(check (option int)) "peek sees a" (Some 1) (Ca.peek c "a");
  Alcotest.(check (option int)) "peek misses quietly" None (Ca.peek c "zz");
  let s = Ca.stats c in
  Alcotest.(check int) "no hits counted" 0 s.Ca.hits;
  Alcotest.(check int) "no misses counted" 0 s.Ca.misses;
  (* peek did not bump recency: "a" is still the LRU entry *)
  Ca.add c "c" 3;
  Alcotest.(check bool) "a evicted despite peek" false (Ca.mem c "a")

let test_cache_overwrite_and_validation () =
  let c = Ca.create ~capacity:2 in
  Ca.add c "a" 1;
  Ca.add c "a" 10;
  Alcotest.(check int) "overwrite keeps size" 1 (Ca.size c);
  Alcotest.(check (option int)) "overwritten value" (Some 10) (Ca.find c "a");
  Alcotest.check_raises "capacity 0" (Invalid_argument "Cache.create: capacity must be >= 1")
    (fun () -> ignore (Ca.create ~capacity:0))

(* --------------------------------------------------------------- *)
(* Pool                                                             *)
(* --------------------------------------------------------------- *)

let squares ~domains =
  Po.with_pool ~domains (fun p ->
      let out = Array.make 24 0 in
      let failures = Po.run p ~jobs:(fun i -> out.(i) <- (i * i) + 1) ~count:24 in
      Alcotest.(check int) "no failures" 0 (List.length failures);
      out)

let test_pool_inline_matches_domains () =
  let inline = squares ~domains:1 in
  Alcotest.(check bool) "2 workers agree with inline" true (squares ~domains:2 = inline);
  Alcotest.(check bool) "3 workers agree with inline" true (squares ~domains:3 = inline)

let test_pool_collects_failures_in_order () =
  Po.with_pool ~domains:1 (fun p ->
      let failures =
        Po.run p ~jobs:(fun i -> if i mod 3 = 0 then failwith (string_of_int i)) ~count:7
      in
      Alcotest.(check (list int)) "failed indices, ascending" [ 0; 3; 6 ]
        (List.map fst failures))

let test_pool_shutdown () =
  let p = Po.create ~domains:2 in
  Po.shutdown p;
  Po.shutdown p;
  Alcotest.check_raises "run after shutdown" (Invalid_argument "Pool.run: pool is shut down")
    (fun () -> ignore (Po.run p ~jobs:(fun _ -> ()) ~count:1))

(* --------------------------------------------------------------- *)
(* Compiled samplers                                                *)
(* --------------------------------------------------------------- *)

let test_compile_certifies () =
  let r = req ~n:4 () in
  let c = Co.compile ~alpha:(q 1 2) ~key:(key r) (Rq.consumer r) in
  Alcotest.(check bool) "certificates non-empty" true (c.Co.certificates <> []);
  Alcotest.(check string) "key recorded" (key r) c.Co.key;
  Alcotest.(check bool) "unbudgeted compile is geometric+remap" true
    (Co.rung c = Minimax.Serve.Geometric_remap);
  Alcotest.(check (list string)) "the release audit's certificates"
    [ "row-stochastic"; "alpha-dp"; "derivable" ]
    (List.map (fun (c : Check.Invariants.certificate) -> c.Check.Invariants.cert_rule)
       c.Co.certificates);
  (* Byte-identical to the standalone rules, one digest shared. *)
  let m = Mech.Mechanism.matrix c.Co.served.Minimax.Serve.mechanism in
  let alpha = q 1 2 in
  Alcotest.(check bool) "certificates equal the standalone rules'" true
    (c.Co.certificates
    = List.filter_map
        (fun (r : Check.Invariants.report) -> r.Check.Invariants.certificate)
        Check.Invariants.
          [ row_stochastic m; alpha_dp ~alpha m; derivability ~alpha m ]);
  (* Theorem 1: the remap rung serves the tailored LP's optimum. *)
  let tailored = Minimax.Optimal_mechanism.solve ~alpha (Rq.consumer r) in
  Alcotest.(check bool) "loss equals the tailored optimum" true
    (Rat.equal (Co.loss c) tailored.Minimax.Optimal_mechanism.loss)

let test_single_draw_takes_exact_path () =
  (* One exact path for every count: count=k is k successive
     Mech.Mechanism.sample calls on one generator, so a count=1 answer
     is the first draw of any count=k answer. *)
  let n = 6 in
  let g = Mech.Geometric.matrix ~n ~alpha:(q 1 2) in
  let s = Co.sampler_of_mechanism g in
  for input = 0 to n do
    List.iter
      (fun count ->
        let compiled = Co.draws s ~input ~count (Rng.of_int (100 + input)) in
        let rng = Rng.of_int (100 + input) in
        let exact = Array.init count (fun _ -> M.sample g ~input rng) in
        Alcotest.(check (array int)) (Printf.sprintf "count=%d equals exact sampler" count) exact
          compiled)
      [ 1; 2; 17 ]
  done;
  Alcotest.check_raises "count 0" (Invalid_argument "Compiled.draws: count must be >= 1")
    (fun () -> ignore (Co.draws s ~input:0 ~count:0 (Rng.of_int 1)))

let test_draws_stay_in_range () =
  let n = 5 in
  let g = Mech.Geometric.matrix ~n ~alpha:(q 1 3) in
  let s = Co.sampler_of_mechanism g in
  let xs = Co.draws s ~input:2 ~count:2_000 (Rng.of_int 7) in
  Alcotest.(check int) "count honoured" 2_000 (Array.length xs);
  Array.iter (fun x -> if x < 0 || x > n then Alcotest.failf "draw out of range: %d" x) xs

(* --------------------------------------------------------------- *)
(* Engine end to end                                                *)
(* --------------------------------------------------------------- *)

(* Four requests, two of them distinct spellings of the consumer the
   first names — so a batch exercises miss, canonical hit, miss, hit. *)
let fixture () =
  [|
    req ~n:5 ~input:2 ~count:400 ();
    req ~n:5 ~input:4 ~count:300 ~loss:(Rq.Capped 9) ();
    req ~n:4 ~input:0 ~count:200 ~loss:Rq.Squared ();
    req ~n:5 ~input:2 ~count:100 ~side:(Rq.At_least 0) ();
  |]

let samples rs = Array.map (fun (r : En.response) -> r.En.samples) rs

let batch ?plan ?budget ?(seed = 42) ~domains () =
  En.with_engine ~domains ?budget (fun e ->
      let go () = En.run_batch ~seed e (fixture ()) in
      let rs = match plan with None -> go () | Some p -> F.with_plan p go in
      (rs, En.cache_stats e))

let test_determinism_across_worker_counts () =
  let inline, _ = batch ~domains:1 () in
  let two, _ = batch ~domains:2 () in
  let four, _ = batch ~domains:4 () in
  Alcotest.(check bool) "1 vs 2 workers byte-identical" true (samples inline = samples two);
  Alcotest.(check bool) "1 vs 4 workers byte-identical" true (samples inline = samples four);
  let reseeded, _ = batch ~domains:1 ~seed:43 () in
  Alcotest.(check bool) "different seed, different draws" true
    (samples inline <> samples reseeded)

let test_cache_hits_and_stats () =
  let rs, stats = batch ~domains:1 () in
  Alcotest.(check bool) "first request misses" false rs.(0).En.cache_hit;
  Alcotest.(check bool) "canonical respelling hits" true rs.(1).En.cache_hit;
  Alcotest.(check bool) "distinct consumer misses" false rs.(2).En.cache_hit;
  Alcotest.(check bool) ">=0 respelling hits" true rs.(3).En.cache_hit;
  Alcotest.(check int) "hits" 2 stats.Ca.hits;
  Alcotest.(check int) "misses" 2 stats.Ca.misses;
  Alcotest.(check int) "insertions" 2 stats.Ca.insertions;
  Array.iter
    (fun (r : En.response) ->
      Alcotest.(check int) "count honoured" r.En.request.Rq.count (Array.length r.En.samples))
    rs

let test_cached_artifacts_are_certified () =
  En.with_engine ~domains:1 (fun e ->
      let rs = En.run_batch ~seed:1 e (fixture ()) in
      Array.iter
        (fun (r : En.response) ->
          match En.artifact e r.En.request with
          | None -> Alcotest.fail "request has no cached artifact"
          | Some a ->
            Alcotest.(check bool) "artifact carries certificates" true (a.Co.certificates <> []))
        rs)

let test_budget_degrades_but_serves () =
  (* A 3-pivot budget cannot finish any LP: the ladder must leave the
     remap rung yet every request is still answered, certified. *)
  let budget () = Lp.Budget.make ~max_pivots:3 () in
  En.with_engine ~domains:1 ~budget (fun e ->
      let r = req ~n:5 ~input:1 ~count:64 () in
      let rs = En.run_batch ~seed:5 e [| r |] in
      Alcotest.(check bool) "rung degraded" true (rs.(0).En.rung = Minimax.Serve.Geometric_raw);
      Alcotest.(check int) "still served" 64 (Array.length rs.(0).En.samples);
      match En.artifact e r with
      | None -> Alcotest.fail "degraded artifact not cached"
      | Some a ->
        Alcotest.(check bool) "degraded release still certified" true (a.Co.certificates <> []))

let test_cache_fault_bypasses () =
  let clean, _ = batch ~domains:1 () in
  let plan = F.plan [ { F.site = "engine.cache"; hits = 1; action = F.Trip } ] in
  let faulted, stats = batch ~domains:1 ~plan () in
  Alcotest.(check bool) "tripped request bypassed the cache" true faulted.(0).En.cache_bypassed;
  Alcotest.(check bool) "tripped request not a hit" false faulted.(0).En.cache_hit;
  Alcotest.(check bool) "next request untouched" false faulted.(1).En.cache_bypassed;
  (* the bypassed compile never entered the cache, so request 1 is now
     the first insertion of that consumer *)
  Alcotest.(check int) "misses" 2 stats.Ca.misses;
  Alcotest.(check int) "hits" 1 stats.Ca.hits;
  Alcotest.(check bool) "faulted batch output identical" true (samples faulted = samples clean)

let test_worker_fault_retries_inline () =
  let clean, _ = batch ~domains:1 () in
  let plan = F.plan [ { F.site = "engine.worker"; hits = 2; action = F.Trip } ] in
  let faulted, _ = batch ~domains:1 ~plan () in
  Alcotest.(check bool) "retried batch output identical" true (samples faulted = samples clean);
  (* a non-fault exception from a job is not swallowed *)
  Alcotest.check_raises "real failures re-raise" (Failure "job 1 broke") (fun () ->
      Po.with_pool ~domains:1 (fun p ->
          let failures =
            Po.run p ~jobs:(fun i -> if i = 1 then failwith "job 1 broke") ~count:3
          in
          List.iter (fun (_, e) -> raise e) failures))

let test_engine_shutdown () =
  let e = En.create ~domains:1 () in
  En.shutdown e;
  En.shutdown e;
  Alcotest.check_raises "batch after shutdown"
    (Invalid_argument "Engine.run_batch: engine is shut down") (fun () ->
      ignore (En.run_batch e [| req () |]))

(* --------------------------------------------------------------- *)
(* Canonical-key properties                                          *)
(* --------------------------------------------------------------- *)

(* A random well-formed request: every loss family, every side-info
   shape, alpha strictly inside (0,1). *)
let arb_request =
  let gen =
    QCheck.Gen.(
      int_range 2 6 >>= fun n ->
      int_range 1 9 >>= fun num ->
      int_range 1 5 >>= fun dd ->
      let alpha = q num (num + dd) in
      oneof
        [
          return Rq.Absolute;
          return Rq.Squared;
          return Rq.Zero_one;
          map (fun w -> Rq.Deadzone w) (int_range 0 3);
          map (fun c -> Rq.Capped c) (int_range 1 7);
          map2 (fun o u -> Rq.Asymmetric (q o 2, q u 3)) (int_range 1 4) (int_range 1 4);
        ]
      >>= fun loss ->
      oneof
        [
          return Rq.Full;
          map (fun k -> Rq.At_least k) (int_range 0 n);
          map (fun k -> Rq.At_most k) (int_range 0 n);
          map2
            (fun lo d -> Rq.Interval (lo, min n (lo + d)))
            (int_range 0 n) (int_range 0 n);
          map (fun ms -> Rq.Members ms) (list_size (int_range 1 (n + 1)) (int_range 0 n));
        ]
      >>= fun side ->
      int_range 0 n >>= fun input ->
      int_range 1 4 >>= fun count ->
      match Rq.make ~input ~count ~n ~alpha ~loss ~side () with
      | Ok r -> return r
      | Error m -> failwith ("generator built an invalid request: " ^ m))
  in
  QCheck.make ~print:(fun r -> Rq.to_line r) gen

(* Rebuild a request from the canonical key's own rendering — the
   key grammar is parseable by the same wire-facing spec parsers. *)
let request_of_key key =
  let strip p s = String.sub s (String.length p) (String.length s - String.length p) in
  match String.split_on_char ';' key with
  | [ nf; af; lf; sf ] -> (
    let n = int_of_string (strip "n=" nf) in
    let alpha =
      match Rat.of_string_opt (strip "a=" af) with
      | Some a -> a
      | None -> Alcotest.failf "key %S has an unparseable alpha" key
    in
    let spec name = function
      | Ok v -> v
      | Error m -> Alcotest.failf "key %S has an unparseable %s: %s" key name m
    in
    let loss = spec "loss" (Rq.loss_spec_of_string (strip "l=" lf)) in
    let side = spec "side" (Rq.side_spec_of_string (strip "s=" sf)) in
    match Rq.make ~n ~alpha ~loss ~side () with
    | Ok r -> r
    | Error m -> Alcotest.failf "key %S does not rebuild: %s" key m)
  | _ -> Alcotest.failf "key %S is not n=..;a=..;l=..;s=.." key

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let key_properties =
  [
    (* parse → canonicalize → reparse is a fixpoint: rebuilding a
       request from its canonical key yields the same key, so
       canonicalization is idempotent and the key grammar round-trips
       through the wire-facing spec parsers. *)
    prop "canonical key is a reparse fixpoint" 200 arb_request (fun r ->
        let k = key r in
        String.equal k (key (request_of_key k)));
    (* The wire line round trip also preserves the key: serving a
       request through to_line/of_line can never split a cache
       entry. *)
    prop "to_line/of_line preserves the canonical key" 200 arb_request (fun r ->
        match Rq.of_line (Rq.to_line r) with
        | Ok (Rq.Query w) -> String.equal (key r) (key w.Rq.request)
        | Ok (Rq.Stats _ | Rq.Session _) | Error _ -> false);
  ]

let () =
  Alcotest.run "engine"
    [
      ( "request",
        [
          Alcotest.test_case "canonical key collapses" `Quick test_canonical_collapses;
          Alcotest.test_case "line round trip" `Quick test_line_round_trip;
          Alcotest.test_case "line defaults and errors" `Quick test_line_defaults_and_errors;
        ] );
      ("properties", key_properties);
      ( "cache",
        [
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "peek is neutral" `Quick test_cache_peek_neutral;
          Alcotest.test_case "overwrite and validation" `Quick test_cache_overwrite_and_validation;
        ] );
      ( "pool",
        [
          Alcotest.test_case "inline matches domains" `Quick test_pool_inline_matches_domains;
          Alcotest.test_case "failures in index order" `Quick test_pool_collects_failures_in_order;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "compile certifies" `Slow test_compile_certifies;
          Alcotest.test_case "count=1 takes exact path" `Quick test_single_draw_takes_exact_path;
          Alcotest.test_case "draws stay in range" `Quick test_draws_stay_in_range;
        ] );
      ( "engine",
        [
          Alcotest.test_case "determinism across worker counts" `Slow
            test_determinism_across_worker_counts;
          Alcotest.test_case "cache hits and stats" `Slow test_cache_hits_and_stats;
          Alcotest.test_case "artifacts certified" `Slow test_cached_artifacts_are_certified;
          Alcotest.test_case "budget degrades but serves" `Slow test_budget_degrades_but_serves;
          Alcotest.test_case "cache fault bypasses" `Slow test_cache_fault_bypasses;
          Alcotest.test_case "worker fault retries inline" `Slow test_worker_fault_retries_inline;
          Alcotest.test_case "shutdown" `Quick test_engine_shutdown;
        ] );
    ]
