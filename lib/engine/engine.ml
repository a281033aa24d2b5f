(* The serving engine; see engine.mli. *)

module Request = Request
module Cache = Cache
module Compiled = Compiled
module Pool = Pool
module Seeder = Seeder

(* The optional second cache tier (a disk artifact store, in
   practice). Both callbacks are contractually total: a probe that
   cannot produce a verified artifact answers None and a store that
   cannot persist swallows the failure, so tier trouble can slow a
   request down but never fail it. *)
type tier = {
  probe : Request.t -> Compiled.t option;
  store : Compiled.t -> unit;
}

type t = {
  pool : Pool.t;
  cache : Compiled.t Cache.t;
  budget : (unit -> Lp.Budget.t) option;
  tier : tier option;
  mutable closed : bool;
}

let create ?domains ?(cache_capacity = 64) ?budget ?tier () =
  let domains =
    match domains with Some d -> d | None -> Pool.recommended_domains ()
  in
  {
    pool = Pool.create ~domains;
    cache = Cache.create ~capacity:cache_capacity;
    budget;
    tier;
    closed = false;
  }

let domains t = Pool.domains t.pool
let cache_stats t = Cache.stats t.cache

type response = {
  request : Request.t;
  key : string;
  samples : int array;
  rung : Minimax.Serve.rung;
  loss : Rat.t;
  provenance : Minimax.Serve.provenance;
  cache_hit : bool;
  store_hit : bool;
  cache_bypassed : bool;
}

(* Compile-or-fetch for one request, on the coordinator domain. A
   tripped "engine.cache" site degrades to a cacheless compile: the
   request is still served, the cache is never touched mid-fault (so a
   trip cannot corrupt or partially populate it), and the bypass is
   counted. A memory miss probes the second tier (when one is wired)
   before compiling, and a fresh compile is offered back to it; the
   tier's contract makes both calls total, so store trouble degrades
   to exactly the storeless path. *)
let resolve ?budget t (req : Request.t) =
  let key = Request.canonical_key req in
  let compile () =
    let budget =
      match budget with Some _ -> budget | None -> Option.map (fun mk -> mk ()) t.budget
    in
    Compiled.compile ?budget ~alpha:req.Request.alpha ~key (Request.consumer req)
  in
  let bypass =
    match Resilience.Fault.trip "engine.cache" with
    | () -> false
    | exception Resilience.Fault.Injected { site = "engine.cache"; _ } -> true
  in
  if bypass then begin
    Obs.incr "engine.cache.bypassed";
    (compile (), false, false, true)
  end
  else
    match Cache.find t.cache key with
    | Some c -> (c, true, false, false)
    | None ->
      let c, store_hit =
        match t.tier with
        | None -> (compile (), false)
        | Some tier -> (
          match tier.probe req with
          | Some c -> (c, true)
          | None ->
            let c = compile () in
            tier.store c;
            (c, false))
      in
      Cache.add t.cache key c;
      (c, false, store_hit, false)

type job = {
  request : Request.t;
  stream : Prob.Rng.t;
  budget : Lp.Budget.t option;
  trace : Obs.Trace.t option;
}

(* Run [f] under the job's trace context, parented to the request's
   admission span (when the server opened one) so compile and sample
   spans hang off one tree. *)
let with_job_trace j f =
  match j.trace with
  | None -> f ()
  | Some tr ->
    let parent = if Obs.Trace.started tr then Obs.Trace.root else 0 in
    Obs.with_trace ~parent tr f

type job_error = Uncertified of { key : string; rule : string }

let job_error_to_string = function
  | Uncertified { key; rule } ->
    Printf.sprintf "release for %s failed certification (%s)" key rule

let run_jobs t (jobs : job array) =
  if t.closed then invalid_arg "Engine.run_jobs: engine is shut down";
  let len = Array.length jobs in
  let total_samples =
    Array.fold_left (fun acc j -> acc + j.request.Request.count) 0 jobs
  in
  Obs.span
    ~attrs:[ ("requests", Obs.Int len); ("samples", Obs.Int total_samples) ]
    "engine.batch"
  @@ fun () ->
  let batch_t0 = Obs.now_ns () in
  Obs.incr ~by:len "engine.requests";
  (* Phase 1 (coordinator): every distinct consumer compiled at most
     once, in job order. A failed certification poisons only its own
     job — the rest of the batch still serves. *)
  let resolved =
    Array.map
      (fun j ->
        with_job_trace j @@ fun () ->
        match resolve ?budget:j.budget t j.request with
        | r -> Ok r
        | exception Compiled.Uncertified { key; rule } -> Error (Uncertified { key; rule })
        | exception Minimax.Serve.Certification_failed { rung; rule } ->
          Error
            (Uncertified
               { key = Request.canonical_key j.request; rule = rung ^ "." ^ rule }))
      jobs
  in
  (* Phase 2 (pool): each job samples from its caller-provided stream,
     so results cannot depend on which worker runs which job, or on how
     many workers exist. The pristine copies feed deterministic inline
     retries after worker faults. *)
  let pristine = Array.map (fun j -> Prob.Rng.copy j.stream) jobs in
  let results = Array.make len [||] in
  let sample_into rng i =
    match resolved.(i) with
    | Error _ -> ()
    | Ok (c, _, _, _) ->
      let req = jobs.(i).request in
      results.(i) <-
        Compiled.draws c.Compiled.sampler ~input:req.Request.input ~count:req.Request.count rng
  in
  (* The per-job sample span: traced to the request that pays for it
     and tagged with where the artifact came from and what its compile
     cost — the attribution the telemetry plane promises. Attr
     construction is behind [enabled] so the disabled serve path stays
     a ref read per entry point. *)
  let sample_attrs i =
    match resolved.(i) with
    | Error _ -> []
    | Ok ((c : Compiled.t), cache_hit, _, _) ->
      let prov = c.Compiled.served.Minimax.Serve.provenance in
      [
        ("cache_hit", Obs.Bool cache_hit);
        ("rung", Obs.Str (Minimax.Serve.rung_to_string (Compiled.rung c)));
        ("pivots_spent", Obs.Int prov.Minimax.Serve.pivots_spent);
        ("count", Obs.Int jobs.(i).request.Request.count);
      ]
  in
  let job i =
    match resolved.(i) with
    | Error _ -> ()
    | Ok _ ->
      let run () =
        Resilience.Fault.trip "engine.worker";
        sample_into jobs.(i).stream i
      in
      if Obs.enabled () then
        with_job_trace jobs.(i) (fun () ->
            Obs.span ~attrs:(sample_attrs i) "engine.sample" run)
      else run ()
  in
  let failures = Pool.run t.pool ~jobs:job ~count:len in
  List.iter
    (fun (i, e) ->
      match e with
      | Resilience.Fault.Injected { site = "engine.worker"; _ } ->
        (* The job never touched its stream (the trip precedes the
           first draw), so replaying from the pristine copy is
           byte-identical to what the worker would have produced. *)
        Obs.incr "engine.worker.retries";
        if Obs.enabled () then
          with_job_trace jobs.(i) (fun () ->
              Obs.span
                ~attrs:(("retry", Obs.Bool true) :: sample_attrs i)
                "engine.sample" (fun () -> sample_into pristine.(i) i))
        else sample_into pristine.(i) i
      | e -> raise e)
    failures;
  let served_samples =
    Array.fold_left (fun acc (r : int array) -> acc + Array.length r) 0 results
  in
  Obs.incr ~by:served_samples "engine.samples";
  let out =
    Array.init len (fun i ->
        match resolved.(i) with
        | Error e -> Error e
        | Ok (c, cache_hit, store_hit, cache_bypassed) ->
          Ok
            {
              request = jobs.(i).request;
              key = c.Compiled.key;
              samples = results.(i);
              rung = Compiled.rung c;
              loss = Compiled.loss c;
              provenance = c.Compiled.served.Minimax.Serve.provenance;
              cache_hit;
              store_hit;
              cache_bypassed;
            })
  in
  (* The whole-batch wall time feeds the engine's rolling window (the
     per-request rolling lives in the server's deliver stage). *)
  Obs.observe_latency_ns "engine.batch.latency" (Int64.sub (Obs.now_ns ()) batch_t0);
  out

let run_batch ?(seed = 42) t (requests : Request.t array) =
  if t.closed then invalid_arg "Engine.run_batch: engine is shut down";
  (* One split stream per request index — exactly the chain a
     per-request [Seeder] walks when every line shares this seed. *)
  let streams = Prob.Rng.streams (Prob.Rng.of_int seed) (Array.length requests) in
  let jobs =
    Array.mapi
      (fun i request ->
        (* Trace ids synthesized from the request index — the batch
           grammar has no wire id=. Contexts are only built when a
           recorder is live; they never touch the sample streams. *)
        let trace =
          if Obs.enabled () then Some (Obs.Trace.make (Printf.sprintf "r%d" i)) else None
        in
        { request; stream = streams.(i); budget = None; trace })
      requests
  in
  Array.map
    (function
      | Ok r -> r
      | Error (Uncertified { key; rule }) -> raise (Compiled.Uncertified { key; rule }))
    (run_jobs t jobs)

let artifact t req = Cache.peek t.cache (Request.canonical_key req)

(* Warm-boot entry point: artifacts a store already verified go
   straight into the memory tier, in the order given (so beyond the
   cache capacity the LRU keeps the last ones offered). *)
let preload t artifacts =
  if t.closed then invalid_arg "Engine.preload: engine is shut down";
  List.iter (fun (c : Compiled.t) -> Cache.add t.cache c.Compiled.key c) artifacts

(* analysis: domain-local — closed is a coordinator-domain latch: set
   and read only by the domain that owns the engine handle. *)
let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Pool.shutdown t.pool
  end

let with_engine ?domains ?cache_capacity ?budget ?tier f =
  let t = create ?domains ?cache_capacity ?budget ?tier () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
