(** The serving engine: one deployed solve, millions of answers.

    Theorem 1 says a single mechanism — [G(n,α)] plus per-consumer
    post-processing — serves every minimax consumer at once; this
    module is that statement as a runtime. Requests naming the same
    consumer (same {!Request.canonical_key}) share one compiled
    artifact from a bounded LRU {!Cache}: the {!Minimax.Serve} ladder
    runs once, its release is re-certified through
    {!Check.Invariants}, per-row exact {!Mech.Sampler} tables are
    built once, and from then on every sample is O(1). Batches fan out
    over a {!Pool} of Domains and merge by request index, so output is
    byte-identical for any worker count given the batch seed.

    Fault sites (see {!Resilience.Fault}):
    - ["engine.cache"] — tripped per request at cache-lookup time; the
      engine degrades to compiling without the cache (counter
      ["engine.cache.bypassed"]) rather than failing the request;
    - ["engine.worker"] — tripped per job inside a worker; the
      coordinator re-executes the job inline from its pristine stream
      (counter ["engine.worker.retries"]), output unchanged.

    Counters: ["engine.requests"], ["engine.samples"],
    ["engine.compiles"], ["engine.cache.hits" / ".misses" /
    ".evictions" / ".insertions" / ".bypassed"],
    ["engine.worker.<id>.jobs"], ["engine.worker.retries"]; histogram
    ["engine.pool.queue_depth"]; spans ["engine.compile"],
    ["engine.batch"] and the per-job ["engine.sample"] (traced to its
    request and tagged with cache hit/miss, rung and pivots spent). *)

module Request = Request
module Cache = Cache
module Compiled = Compiled
module Pool = Pool
module Seeder = Seeder

type t

(** An optional second cache tier behind the in-memory LRU — in
    practice a disk artifact store ([lib/store]). A memory miss calls
    [probe] before compiling; a fresh compile is offered to [store]
    for write-back. Both callbacks are contractually total: [probe]
    answers [None] for anything it cannot produce a {e verified}
    artifact for (absent, corrupt, failed re-certification, I/O
    trouble) and [store] swallows its own failures — so a broken tier
    degrades the engine to exactly the storeless compile path, never
    into an error or a wrong byte. *)
type tier = {
  probe : Request.t -> Compiled.t option;
  store : Compiled.t -> unit;
}

val create :
  ?domains:int ->
  ?cache_capacity:int ->
  ?budget:(unit -> Lp.Budget.t) ->
  ?tier:tier ->
  unit ->
  t
(** [domains] defaults to {!Pool.recommended_domains}[ ()] ([<= 1]
    means the inline single-domain fallback); [cache_capacity]
    defaults to [64]. [budget] is invoked once per compile so each
    solve gets a fresh deadline window; compiles that exhaust it
    degrade down the serve ladder instead of failing
    (see {!Minimax.Serve}). [tier] wires a second cache tier under the
    LRU (memory miss → tier probe → compile → tier write-back). *)

val domains : t -> int
val cache_stats : t -> Cache.stats

(** One answered request. *)
type response = {
  request : Request.t;
  key : string;  (** the canonical key it was served under *)
  samples : int array;  (** [request.count] draws, in draw order *)
  rung : Minimax.Serve.rung;  (** ladder rung of the serving mechanism *)
  loss : Rat.t;  (** the consumer's minimax loss of that mechanism *)
  provenance : Minimax.Serve.provenance;
      (** full serve-ladder provenance of the compiled artifact *)
  cache_hit : bool;  (** served from the in-memory LRU *)
  store_hit : bool;
      (** memory miss answered by the second tier (a verified
          warm-restart artifact), no compile paid *)
  cache_bypassed : bool;  (** compiled outside the cache (fault trip) *)
}

(** One unit of incremental-batch work: a request, the {!Prob.Rng}
    stream its samples must come from (typically a {!Seeder} hand-out),
    an optional per-job budget overriding the engine-wide thunk — how
    the server threads each connection's deadline down to the compile
    it pays for — and an optional trace context so the compile and
    sample spans are attributed to the request that paid for them
    (tagged with cache hit/miss, ladder rung and pivots spent). The
    trace never influences served bytes. *)
type job = {
  request : Request.t;
  stream : Prob.Rng.t;
  budget : Lp.Budget.t option;
  trace : Obs.Trace.t option;
}

type job_error =
  | Uncertified of { key : string; rule : string }
      (** the release failed re-certification; [rule] names the failed
          check (prefixed [<rung>.] when the serve ladder itself
          refused to certify) *)

val job_error_to_string : job_error -> string

val run_jobs : t -> job array -> (response, job_error) result array
(** Serve an incremental batch, one result per job, in job order.
    Compilation runs on the calling domain in job order; sampling fans
    out over the pool, each job drawing from its own [stream] — so for
    fixed streams the samples are byte-identical for every [domains]
    setting. Unlike {!run_batch}, a certification failure is returned
    in that job's slot instead of raised, and the rest of the batch
    still serves.
    @raise Invalid_argument after {!shutdown} *)

val run_batch : ?seed:int -> t -> Request.t array -> response array
(** Serve a batch (default [seed 42]). Equivalent to {!run_jobs} with
    stream [i] the [i]-th split of [Rng.of_int seed] and no per-job
    budgets: compilation runs on the calling domain in request order;
    sampling fans out over the pool with one split {!Prob.Rng} stream
    per request index. For a fixed seed the returned samples are
    byte-identical for every [domains] setting.
    @raise Invalid_argument after {!shutdown}
    @raise Compiled.Uncertified if a release fails re-certification *)

val artifact : t -> Request.t -> Compiled.t option
(** The cached artifact that would serve this request, if present
    (recency- and counter-neutral). *)

val preload : t -> Compiled.t list -> unit
(** Warm the memory tier with already-verified artifacts (a store's
    [load_all] hand-off), in list order; beyond the cache capacity the
    LRU keeps the last ones offered.
    @raise Invalid_argument after {!shutdown} *)

val shutdown : t -> unit
(** Stop the pool. Idempotent. *)

val with_engine :
  ?domains:int ->
  ?cache_capacity:int ->
  ?budget:(unit -> Lp.Budget.t) ->
  ?tier:tier ->
  (t -> 'a) ->
  'a
(** [create], run, and {!shutdown} (also on exceptions). *)
