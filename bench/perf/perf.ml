(* perf — the serving benchmark for dpserved.

   [perf run --seed S [--workload W]... [--seconds 20] [--trace 0|1]
   [--out FILE]] starts dpserved as a child process with a pinned
   config, drives one or more workloads at it from a single-threaded
   load generator (at most two connections), checks every served byte
   against an in-process reference, and prints every metric by name
   with its unit. The last stdout line is one JSON object:
   {"correct","attempted","failed","metrics"}. With [--trace 1] the
   workload's inputs are also replayed in-process with a span around
   every call into a layer, and the metrics are the per-layer ones.

   [perf compare A.jsonl B.jsonl] compares two sets of [--out] records
   against the bounds in BENCHMARK.json.

   Workloads (README.md says why each exists):
   - hot: open-loop Poisson steps at three fixed rates over eight
     pre-warmed consumers, then closed-loop saturation;
   - compile: every request a distinct consumer, one at a time, over a
     fresh artifact store;
   - restart: a preloaded 256-artifact store behind a 64-entry cache,
     open loop then saturation;
   - session: release epochs over four 4-level session groups with
     checkpointed budget ledgers. *)

module R = Engine.Request
module J = Obs.Json

let workloads = [ "hot"; "compile"; "restart"; "session" ]

type ctx = {
  exe : string;  (** the dpserved binary *)
  workdir : string;
  seed : int;
  seconds : float;  (** [Plan.run_seconds], or one second in a smoke run *)
  traced : bool;
  smoke : bool;
}

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun e ->
      let data = Report.read_file (Filename.concat src e) in
      Out_channel.with_open_bin (Filename.concat dst e) (fun oc -> output_string oc data))
    (Sys.readdir src)

let ms_of_ns ns = Int64.to_float ns /. 1e6

(* ------------------------------------------------------------------ *)
(* One end-to-end measurement                                          *)
(* ------------------------------------------------------------------ *)

type e2e = {
  slots : Load.slot array;
  stray : int;  (** response lines that answered no request *)
  setup_s : float;
  rss_mb : float;
  stats : J.t list;  (** op=stats snapshots, oldest first (traced runs only) *)
  capacity : float;
}

(* In traced runs the daemon's op=stats is polled every 100 ms on
   connection 0, for the queue-depth gauge. *)
let stats_poller ctx t =
  if not ctx.traced then fun () -> ()
  else
    let next = ref (Load.now ()) and k = ref 0 in
    fun () ->
      if Load.now () >= !next then begin
        incr k;
        next := Int64.add (Load.now ()) 100_000_000L;
        let id = Printf.sprintf "st%d" !k in
        ignore
          (Load.send t ~keep:true ~phase:"admin" ~due_ns:(Load.now ())
             { Plan.line = "v=1 op=stats id=" ^ id; id; conn = 0; expect = 1 })
      end

let serve ctx ~run_dir ~flags ~conns ~before_each drive =
  let log = Filename.concat run_dir "dpserved.log" in
  let d, setup_s =
    Daemon.start_measured ~exe:ctx.exe ~args:(Plan.daemon_flags @ flags) ~log
      ~starts:(if ctx.smoke then 1 else Plan.setup_starts)
      ~before_each
  in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let t = Load.connect ~port:d.Daemon.port ~conns in
      Fun.protect
        ~finally:(fun () -> Load.close t)
        (fun () ->
          let tick = stats_poller ctx t in
          let rss = ref None in
          let capacity = drive t tick (fun () -> rss := Some (Daemon.peak_rss_mb d)) in
          let deadline_ns = Int64.add (Load.now ()) 60_000_000_000L in
          Load.drain t ~deadline_ns;
          if ctx.traced then Load.stats t ~id:"stats-end" ~deadline_ns;
          let rss_mb = match !rss with Some r -> r | None -> Daemon.peak_rss_mb d in
          let slots = Load.slots t in
          let stats =
            List.filter_map
              (fun (s : Load.slot) ->
                match s.Load.text with
                | [ l ] -> Option.bind (Result.to_option (J.of_string l)) (J.member "stats")
                | _ -> None)
              (Array.to_list slots)
          in
          { slots; stray = t.Load.stray; setup_s; rss_mb; stats; capacity }))

(* Run the phases of an open/closed plan; returns the saturation
   phase's capacity. The daemon's peak RSS is read before saturation:
   the work a saturation phase completes depends on the host's speed,
   the open-loop work before it does not. *)
let drive_phases t tick rss phases =
  List.fold_left
    (fun capacity -> function
      | Plan.Open { name; schedule } ->
        Load.run_open t ~tick ~phase:name schedule;
        Load.drain t ~deadline_ns:(Int64.add (Load.now ()) 60_000_000_000L);
        capacity
      | Plan.Closed { name; next; seconds } ->
        rss ();
        Load.run_closed t ~tick ~phase:name ~window:Plan.window ~seconds ~next)
    Float.nan phases

(* ------------------------------------------------------------------ *)
(* Latency                                                             *)
(* ------------------------------------------------------------------ *)

let in_phase slots phase =
  List.filter (fun (s : Load.slot) -> String.equal s.Load.phase phase) (Array.to_list slots)

(* Failed requests count as +inf. *)
let latency ~failed (s : Load.slot) =
  if Hashtbl.mem failed s.Load.item.Plan.id then Float.infinity else Load.latency_ms s

(* The latencies of one phase. *)
let latencies slots ~failed ~phase = Array.of_list (List.map (latency ~failed) (in_phase slots phase))

(* The latencies of one phase, one array per second of its schedule
   (by due time). Every request is due less than the phase's length
   after the first, so no second is a stub. *)
let per_second slots ~failed ~phase =
  let mine = in_phase slots phase in
  let t0 = List.fold_left (fun m (s : Load.slot) -> min m s.Load.due_ns) Int64.max_int mine in
  let by_sec = Hashtbl.create 16 in
  List.iter
    (fun (s : Load.slot) ->
      let k = Int64.div (Int64.sub s.Load.due_ns t0) 1_000_000_000L in
      Hashtbl.replace by_sec k
        (latency ~failed s :: Option.value (Hashtbl.find_opt by_sec k) ~default:[]))
    mine;
  Hashtbl.fold (fun _ l acc -> Array.of_list l :: acc) by_sec []

let lags slots ~phases =
  Array.of_list
    (List.filter_map
       (fun (s : Load.slot) ->
         if List.mem s.Load.phase phases then Some (ms_of_ns (Int64.sub s.Load.sent_ns s.Load.due_ns))
         else None)
       (Array.to_list slots))

let show_ms = function Some v -> Printf.sprintf "%.3f ms" v | None -> "n/a (<10 beyond)"

let describe name lat =
  let pct p = show_ms (Quant.published lat p) in
  (name, Printf.sprintf "n=%d p50=%s p90=%s p99=%s" (Array.length lat) (pct 0.5) (pct 0.9) (pct 0.99))

(* ------------------------------------------------------------------ *)
(* The traced replay                                                   *)
(* ------------------------------------------------------------------ *)

type observed = {
  spans : Replay.layer_span list;
  recorder : Obs.t;
  traced : Replay.pass;
  plain : Replay.pass;  (** the same pass with no recorder installed *)
  extra : Replay.extra option;
  nockpt : float array;  (** session release self times without a checkpoint *)
}

let fresh = ref 0

let fresh_path run_dir name =
  incr fresh;
  Filename.concat run_dir (Printf.sprintf "%s-%d" name !fresh)

type replay_input =
  | Queries of (unit -> Replay.queries)  (** each pass gets fresh stores *)
  | Sessions of Plan.item array

let observe ~run_dir = function
  | Queries q ->
    let plain = Replay.untraced (fun () -> Replay.query_pass (q ())) in
    let recorder = Obs.create () in
    let qt = q () in
    let traced = Obs.with_recorder recorder (fun () -> Replay.query_pass qt) in
    let extra = Replay.untraced (fun () -> Replay.extra_timings qt traced.Replay.artifacts) in
    { spans = Replay.layer_spans recorder; recorder; traced; plain; extra = Some extra; nockpt = [||] }
  | Sessions verbs ->
    let pass checkpoint = Replay.session_pass { Replay.verbs; checkpoint } in
    let plain = Replay.untraced (fun () -> pass (Some (fresh_path run_dir "ckpt"))) in
    let recorder = Obs.create () in
    let traced = Obs.with_recorder recorder (fun () -> pass (Some (fresh_path run_dir "ckpt"))) in
    let r2 = Obs.create () in
    ignore (Obs.with_recorder r2 (fun () -> pass None));
    {
      spans = Replay.layer_spans recorder;
      recorder;
      traced;
      plain;
      extra = None;
      nockpt = Replay.selfs (Replay.layer_spans r2) "session.release";
    }

let med o name scale =
  let a = Replay.selfs o.spans name in
  if Array.length a = 0 then None else Some (Quant.median a /. scale)

let compiles o =
  let c = o.traced.Replay.tally.Replay.compiles in
  if c > 0 then Some (float_of_int c) else None

let counter o name = float_of_int (Obs.counter o.recorder name)
let finite v = if Float.is_finite v then Some v else None

(* Per-layer metrics the replay measures, from one observation; [None]
   where that observation never reached the layer. *)
let layer_value o name =
  let tally = o.traced.Replay.tally in
  match name with
  | "request.of_line_us" -> med o "request.of_line" 1e3
  | "request.canonical_key_us" -> med o "request.canonical_key" 1e3
  | "engine.run_jobs_us_per_req" ->
    let spans = List.filter (fun s -> String.equal s.Replay.lname "engine.run_jobs") o.spans in
    let jobs = List.fold_left (fun a s -> a + s.Replay.jobs) 0 spans in
    if jobs = 0 then None
    else
      Some
        (List.fold_left (fun a s -> a +. Int64.to_float s.Replay.self) 0. spans
        /. float_of_int jobs /. 1e3)
  | "pool.speedup_2v1" -> Option.bind o.extra (fun e -> finite e.Replay.speedup)
  | "alias.draw_ns" -> Option.bind o.extra (fun e -> finite e.Replay.alias_draw_ns)
  | "exact.draw_us" -> Option.bind o.extra (fun e -> finite e.Replay.exact_draw_us)
  | "alias.build_us" -> med o "alias.build" 1e3
  | "serve.ladder_ms" -> med o "serve.ladder" 1e6
  | "serve.ladder_p90_ms" ->
    let a = Replay.selfs o.spans "serve.ladder" in
    if Array.length a = 0 then None else Some (Quant.percentile a 0.9 /. 1e6)
  | "serve.rung_share.tailored" ->
    Option.map (fun c -> float_of_int tally.Replay.tailored /. c) (compiles o)
  | "lp.solves_per_compile" -> Option.map (fun c -> counter o "lp.solves" /. c) (compiles o)
  | "lp.pivots_per_compile" -> Option.map (fun c -> counter o "simplex.pivots" /. c) (compiles o)
  | "lp.warm_hit_ratio" ->
    Option.map
      (fun _ ->
        let h = counter o "lp.warm.hits" and m = counter o "lp.warm.misses" in
        if h +. m > 0. then h /. (h +. m) else 0.)
      (compiles o)
  | "lp.max_pivot_bits" ->
    Option.map
      (fun _ -> float_of_int (Obs.histogram_max o.recorder "simplex.pivot_bits"))
      (compiles o)
  | "check.certify_ms" -> med o "check.certify" 1e6
  | "store.write_ms" -> med o "store.write" 1e6
  | "store.load_ms" -> med o "store.load" 1e6
  | "store.preload_s" -> med o "store.preload" 1e9
  | "response.encode_us" -> med o "response.encode" 1e3
  | "response.bytes" ->
    if tally.Replay.lines = 0 then None
    else Some (float_of_int tally.Replay.bytes /. float_of_int tally.Replay.lines)
  | "session.release_ms" -> med o "session.release" 1e6
  | "session.checkpoint_ms" ->
    if Array.length o.nockpt = 0 then None
    else Option.map (fun r -> r -. (Quant.median o.nockpt /. 1e6)) (med o "session.release" 1e6)
  | "session.spent_bits_max" ->
    if Array.length o.nockpt = 0 then None else Some (float_of_int o.traced.Replay.bits)
  | "trace.overhead_ratio" -> Some (o.traced.Replay.wall /. o.plain.Replay.wall)
  | "trace.self_coverage" ->
    Some
      (List.fold_left (fun a s -> a +. Int64.to_float s.Replay.self) 0. o.spans
      /. 1e9 /. o.traced.Replay.wall)
  | _ -> None

let stat path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path
  |> Fun.flip Option.bind J.to_int_opt
  |> Option.value ~default:0
  |> float_of_int

(* hits / (hits + misses); [None] when the daemon never probed. *)
let ratio hits misses = if hits +. misses > 0. then Some (hits /. (hits +. misses)) else None

(* The per-layer metrics of a traced run: from the daemon's op=stats
   snapshots and the e2e timings, or else from the workload's own
   replay; [None] for a layer the workload never reaches. Returns them
   with the untraced replay's byte check. *)
let layer_metrics ctx ~run_dir ~input ~(e : e2e) ~by_id ~latency_of ~lag_p99 =
  let o = observe ~run_dir input in
  Obs.write_chrome_trace o.recorder (Filename.concat ctx.workdir "trace.json");
  (* The untraced replay must serve the bytes the daemon served. *)
  let answers = o.plain.Replay.tally.Replay.answers in
  let identical =
    List.length
      (List.filter
         (fun (id, lines) ->
           match Hashtbl.find_opt by_id id with
           | Some s -> String.equal s.Load.digest (List.fold_left Load.chain "" lines)
           | None -> false)
         answers)
  in
  let final = match List.rev e.stats with s :: _ -> Some s | [] -> None in
  let fin path = match final with Some j -> stat path j | None -> 0. in
  let from_e2e = function
    | "engine.cache.hit_ratio" -> ratio (fin [ "cache"; "hits" ]) (fin [ "cache"; "misses" ])
    | "store.hit_ratio" -> ratio (fin [ "store"; "hits" ]) (fin [ "store"; "misses" ])
    | "server.latency_mean_us" ->
      (* the daemon's own rolling window over the workload's requests:
         queries, or session epochs *)
      let window =
        match input with Queries _ -> [ "latency_us" ] | Sessions _ -> [ "session"; "epoch_latency_us" ]
      in
      let c = fin (window @ [ "count" ]) in
      Some (if c > 0. then fin (window @ [ "sum_us" ]) /. c else 0.)
    | "server.queue_depth_max" ->
      Some (List.fold_left (fun m j -> Float.max m (stat [ "queue"; "depth" ] j)) 0. e.stats)
    | "server.overhead_us" ->
      (* mean e2e latency of the replayed requests minus their mean
         in-process time *)
      let lats = Array.of_list (List.filter_map (fun (id, _) -> latency_of id) answers) in
      Some ((Quant.mean lats *. 1e3) -. (o.plain.Replay.per_request *. 1e6))
    | "load.gen_lag_p99_ms" -> Some lag_p99
    | _ -> None
  in
  let metrics =
    List.map
      (fun (m : Report.metric) ->
        let name = m.Report.name in
        (name, match from_e2e name with Some _ as v -> v | None -> layer_value o name))
      Report.per_layer
  in
  (metrics, Printf.sprintf "%d of %d replayed answers byte-identical to the served ones" identical (List.length answers))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = {
  e : e2e;
  verdict : int * int * string list;
  failed_ids : (string, unit) Hashtbl.t;
  p50 : float;
  p90 : float;
  p90_beyond : int;  (** samples beyond the p90, in its fewest-sample window *)
  lag : float array;
  input : replay_input;
  info : (string * string) list;
}

let outcome (e : e2e) expected ~phase ~lag_phases ~input ~info =
  let attempted, failed_ids, failures = Reference.verdict ~stray:e.stray e.slots expected in
  let verdict = (attempted, Hashtbl.length failed_ids, failures) in
  (* An open-loop phase's percentiles are taken per second and the
     median over the seconds is reported: the host's stalls come in
     bursts of seconds, and then move the seconds they fall in rather
     than the number. A closed loop's requests are not spread evenly in
     time, so its percentiles are over the whole phase. *)
  let windows =
    if List.exists (fun (s : Load.slot) -> s.Load.open_loop) (in_phase e.slots phase) then
      per_second e.slots ~failed:failed_ids ~phase
    else [ latencies e.slots ~failed:failed_ids ~phase ]
  in
  let pct p = Quant.median (Array.of_list (List.map (fun l -> Quant.percentile l p) windows)) in
  {
    e;
    verdict;
    failed_ids;
    p50 = pct 0.5;
    p90 = pct 0.9;
    p90_beyond =
      List.fold_left (fun m l -> min m (Quant.beyond l (Quant.percentile l 0.9))) max_int windows;
    lag = lags e.slots ~phases:lag_phases;
    input;
    info = info (fun phase -> latencies e.slots ~failed:failed_ids ~phase);
  }

(* The first [limit] requests the daemon admitted, outside [skip]. *)
let replayed ?(skip = []) slots ~limit =
  Array.of_list
    (Plan.take limit
       (List.filter_map
          (fun (s : Load.slot) -> if List.mem s.Load.phase skip then None else Some s.Load.item)
          (Reference.admitted slots)))

let minutes k = Int64.add (Load.now ()) (Int64.mul (Int64.of_int k) 60_000_000_000L)

let hot ctx ~run_dir =
  let plan = Plan.hot ~seed:ctx.seed ~seconds:ctx.seconds in
  let e =
    serve ctx ~run_dir ~flags:[] ~conns:2 ~before_each:ignore (fun t tick rss ->
        ignore (Load.run_sequence t ~tick ~phase:"warm" ~deadline_ns:(minutes 2) plan.Plan.warm);
        drive_phases t tick rss plan.Plan.hot_phases)
  in
  let warm = Array.of_list plan.Plan.warm in
  outcome e (Reference.engine_digests ~cache:64 e.slots) ~phase:"mid"
    ~lag_phases:(List.map (fun (n, _, _) -> n) Plan.hot_steps)
    ~input:
      (Queries
         (fun () ->
           {
             Replay.warm;
             items = replayed e.slots ~skip:[ "warm" ] ~limit:(if ctx.smoke then 200 else 6000);
             batch = 8;
             cache = 64;
             store = Replay.No_store;
           }))
    ~info:(fun lat ->
      (* The highest step whose p99 meets the limit: for reading only. *)
      let limit_ms = 10. in
      let best =
        List.fold_left
          (fun best (name, share, _) ->
            match Quant.published (lat name) 0.99 with
            | Some p99 when p99 <= limit_ms ->
              Printf.sprintf "%s (%.0f req/s)" name (share *. Plan.hot_base_rps)
            | _ -> best)
          "none" Plan.hot_steps
      in
      List.map (fun (n, _, _) -> describe ("step " ^ n) (lat n)) Plan.hot_steps
      @ [ describe "saturation" (lat "sat");
          ("lat_p99_ms.high", show_ms (Quant.published (lat "high") 0.99));
          (Printf.sprintf "best step, p99 <= %.0f ms" limit_ms, best) ])

let readonly_tier dir =
  match Store.open_dir ~readonly:true dir with Ok s -> Some (Store.tier s) | Error _ -> None

let compile ctx ~run_dir =
  let count = if ctx.smoke then 4 else Plan.compile_requests in
  let items = Plan.compile_items ~seed:ctx.seed ~count in
  let store = Filename.concat run_dir "store" in
  let e =
    serve ctx ~run_dir ~flags:[ "--store"; store ] ~conns:1
      ~before_each:(fun () -> rm_rf store)
      (fun t tick _ ->
        float_of_int count
        /. Load.run_sequence t ~tick ~phase:"compile" ~deadline_ns:(minutes 2) items)
  in
  (* The daemon wrote every compile back to the store; the reference
     reads them there (verified on load) instead of solving again. *)
  outcome e
    (Reference.engine_digests ?tier:(readonly_tier store) ~cache:64 e.slots)
    ~phase:"compile" ~lag_phases:[ "compile" ]
    ~input:
      (Queries
         (fun () ->
           {
             Replay.warm = [||];
             items = replayed e.slots ~limit:(if ctx.smoke then 2 else 24);
             batch = 1;
             cache = 64;
             store = Replay.Write (fresh_path run_dir "replay-store");
           }))
    ~info:(fun lat -> [ describe "compile" (lat "compile") ])

(* The restart store is a fixed population, so it is compiled once per
   build of the benchmark and of dpserved (the cache key is their
   digest) and copied into each run. *)
let restart_store ctx ~artifacts =
  let key =
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            [ Digest.file ctx.exe; Digest.file Sys.executable_name; string_of_int artifacts ]))
  in
  let dir = Filename.concat ctx.workdir ("restart-store-" ^ key) in
  if not (Sys.file_exists dir) then begin
    let tmp = Printf.sprintf "%s.tmp%d" dir (Unix.getpid ()) in
    rm_rf tmp;
    let s = Replay.open_store tmp in
    Array.iter
      (fun (c : Plan.consumer) ->
        let r = Plan.request c in
        let key = R.canonical_key r in
        match Store.write s (Engine.Compiled.compile ~alpha:c.Plan.alpha ~key (R.consumer r)) with
        | Ok () -> ()
        | Error e -> failwith ("restart store: " ^ Store.error_to_string e))
      (Plan.restart_population ~artifacts);
    Sys.rename tmp dir
  end;
  dir

let restart ctx ~run_dir =
  let artifacts = if ctx.smoke then 16 else Plan.restart_artifacts in
  let t0 = Load.now () in
  let store = Filename.concat run_dir "store" in
  copy_dir (restart_store ctx ~artifacts) store;
  let prep_s = Load.secs (Int64.sub (Load.now ()) t0) in
  let phases =
    Plan.restart_phases ~seed:ctx.seed ~seconds:ctx.seconds
      ~population:(Plan.restart_population ~artifacts)
  in
  let e =
    serve ctx ~run_dir ~flags:[ "--store"; store; "--preload" ] ~conns:2 ~before_each:ignore
      (fun t tick rss -> drive_phases t tick rss phases)
  in
  outcome e
    (Reference.engine_digests ?tier:(readonly_tier store) ~cache:64 e.slots)
    ~phase:"open" ~lag_phases:[ "open" ]
    ~input:
      (Queries
         (fun () ->
           {
             Replay.warm = [||];
             items = replayed e.slots ~limit:(if ctx.smoke then 200 else 4000);
             batch = 8;
             cache = 64;
             store = Replay.Preloaded store;
           }))
    ~info:(fun lat ->
      [ ("prep_s", Printf.sprintf "%.3f s (%d artifacts, excluded)" prep_s artifacts);
        describe "open loop" (lat "open");
        describe "saturation" (lat "sat") ])

let session ctx ~run_dir =
  let epochs = if ctx.smoke then 20 else Plan.session_epochs in
  let plan = Plan.session ~seed:ctx.seed ~epochs in
  let ckpt = Filename.concat run_dir "sessions.ckpt" in
  let e =
    serve ctx ~run_dir ~flags:[ "--session-store"; ckpt ] ~conns:1
      ~before_each:(fun () -> rm_rf ckpt)
      (fun t tick _ ->
        let deadline_ns = minutes 2 in
        ignore (Load.run_sequence t ~tick ~phase:"subscribe" ~deadline_ns plan.Plan.subscribes);
        float_of_int epochs
        /. Load.run_sequence t ~tick ~phase:"release" ~deadline_ns plan.Plan.releases)
  in
  outcome e (Reference.session_digests e.slots) ~phase:"release" ~lag_phases:[ "release" ]
    ~input:
      (Sessions
         (Array.of_list
            (plan.Plan.subscribes @ Plan.take (if ctx.smoke then 20 else 400) plan.Plan.releases)))
    ~info:(fun lat -> [ describe "release" (lat "release") ])

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_one ctx name =
  let run_dir =
    Filename.concat ctx.workdir (Printf.sprintf "run-%s-%d-%d" name ctx.seed (Unix.getpid ()))
  in
  rm_rf run_dir;
  mkdir_p run_dir;
  Fun.protect
    ~finally:(fun () -> rm_rf run_dir)
    (fun () ->
      let o =
        match name with
        | "hot" -> hot ctx ~run_dir
        | "compile" -> compile ctx ~run_dir
        | "restart" -> restart ctx ~run_dir
        | "session" -> session ctx ~run_dir
        | w -> invalid_arg ("unknown workload " ^ w)
      in
      let attempted, failed, failures = o.verdict in
      let by_id = Hashtbl.create 4096 in
      Array.iter (fun (s : Load.slot) -> Hashtbl.replace by_id s.Load.item.Plan.id s) o.e.slots;
      let lag_p99 = Quant.percentile o.lag 0.99 in
      (* The gated p90 needs ten samples beyond it, as every printed
         percentile does; the frozen counts give at least sixteen. *)
      let valid = ctx.smoke || (lag_p99 <= Plan.lag_bound_ms && o.p90_beyond >= 10) in
      let e2e =
        [
          ("setup_s", o.e.setup_s);
          ("lat_p50_ms", o.p50);
          ("lat_p90_ms", o.p90);
          ("capacity_rps", o.e.capacity);
          ("peak_rss_mb", o.e.rss_mb);
        ]
      in
      let layers =
        if ctx.traced then
          let latency_of id =
            if Hashtbl.mem o.failed_ids id then None
            else Option.map Load.latency_ms (Hashtbl.find_opt by_id id)
          in
          Some (layer_metrics ctx ~run_dir ~input:o.input ~e:o.e ~by_id ~latency_of ~lag_p99)
        else None
      in
      let info =
        o.info
        @ [ ("load.gen_lag_p99_ms", Printf.sprintf "%.4f ms (bound %.1f ms)" lag_p99 Plan.lag_bound_ms) ]
        @
        match layers with
        | None -> []
        | Some (_, replay_check) ->
          ("replay", replay_check)
          :: List.map (fun (k, v) -> (k, Printf.sprintf "%.6g %s" v (Report.unit_of k))) e2e
      in
      {
        Report.workload = name;
        seed = ctx.seed;
        traced = ctx.traced;
        attempted;
        failed;
        failures;
        valid;
        metrics =
          (match layers with
           | Some (l, _) -> l
           | None -> List.map (fun (k, v) -> (k, Some v)) e2e);
        info;
      })

let run ctx names out =
  mkdir_p ctx.workdir;
  let results = List.map (run_one ctx) names in
  List.iter Report.print_human results;
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_append; Open_text ] 0o644 path
        (fun oc -> List.iter (fun r -> output_string oc (Report.record r ^ "\n")) results))
    out;
  let correct = List.for_all Report.correct results in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let metrics =
    match results with
    | [ r ] -> r.Report.metrics
    | rs ->
      List.concat_map
        (fun r -> List.map (fun (k, v) -> (r.Report.workload ^ "/" ^ k, v)) r.Report.metrics)
        rs
  in
  print_endline
    (Report.summary_line ~correct
       ~attempted:(sum (fun r -> r.Report.attempted))
       ~failed:(sum (fun r -> r.Report.failed))
       metrics);
  if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let default_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/dpserved.exe"

let run_cmd =
  let seed = Arg.(required & opt (some int) None & info [ "seed" ] ~docv:"S" ~doc:"Workload seed.") in
  let workload =
    Arg.(
      value
      & opt_all (enum (List.map (fun w -> (w, w)) workloads)) []
      & info [ "workload" ] ~docv:"W" ~doc:"Workload to run (repeatable; default: all four).")
  in
  let seconds =
    Arg.(
      value & opt int Plan.run_seconds
      & info [ "seconds" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Measured seconds per workload. The offered work is sized for %d, so any other \
                value is refused."
               Plan.run_seconds))
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1" ~doc:"1: also replay in-process with layer spans and report the per-layer metrics.")
  in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Append one JSON record per workload to FILE.") in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Tiny sizes, traced, correctness gate only.")
  in
  let exe =
    Arg.(value & opt (some string) None & info [ "dpserved" ] ~docv:"PATH" ~doc:"The dpserved binary.")
  in
  let workdir =
    Arg.(
      value & opt string ".bench_build/perf"
      & info [ "workdir" ] ~docv:"DIR" ~doc:"Scratch directory for stores, logs and the trace.")
  in
  let go seed ws seconds traced out smoke exe workdir =
    if seconds <> Plan.run_seconds then begin
      Printf.eprintf "perf: --seconds %d: the workloads are sized for %d seconds\n" seconds
        Plan.run_seconds;
      2
    end
    else
      let ctx =
        {
          exe = Option.value exe ~default:(default_exe ());
          workdir;
          seed;
          seconds = (if smoke then 1.0 else float_of_int Plan.run_seconds);
          traced = traced || smoke;
          smoke;
        }
      in
      match run ctx (if ws = [] then workloads else ws) out with
      | code -> code
      | exception Daemon.Failed msg ->
        prerr_endline ("perf: " ^ msg);
        2
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run workloads against dpserved and print every metric.")
    Term.(const go $ seed $ workload $ seconds $ trace $ out $ smoke $ exe $ workdir)

let compare_cmd =
  let files = Arg.(value & pos_all file [] & info [] ~docv:"A.jsonl B.jsonl") in
  let spec =
    Arg.(value & opt file "BENCHMARK.json" & info [ "spec" ] ~docv:"FILE" ~doc:"Where the bounds are.")
  in
  let go files spec =
    match files with
    | [ a; b ] -> if Report.compare ~spec [ a ] [ b ] then 0 else 1
    | _ ->
      prerr_endline "compare: give two files of --out records (A, then B)";
      2
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare two sets of run records against BENCHMARK.json's bounds.")
    Term.(const go $ files $ spec)

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  exit (Cmd.eval' (Cmd.group (Cmd.info "perf" ~doc:"dpserved serving benchmark") [ run_cmd; compare_cmd ]))
