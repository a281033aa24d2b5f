(** Ambient observability for the exact-arithmetic pipeline: spans,
    counters, bit-size histograms, rolling latency windows and
    per-request trace contexts, with text, JSON-lines and Chrome
    trace-event export.

    The library is silent by default. Instrumented code calls {!span},
    {!incr} and {!observe} unconditionally; when no recorder is
    installed (see {!set_current}) each call is one ref read plus a
    branch. Measurements that are themselves expensive — scanning a
    tableau for the largest coefficient, computing {!Rat.bit_size} over
    a matrix — must be guarded by {!enabled} at the call site.

    When a recorder is installed, the hot path is lock-free: the
    recorder is sharded per Domain, each domain records into its own
    shard (one [Domain.DLS] load plus an integer compare to reach it),
    and the module's only mutex guards shard registration and
    read-out. Read-out merges the shards with associative, commutative
    folds — counter sums, bucket-wise histogram merges, keyed rolling
    slices — so the merged view is independent of how work was split
    over domains. Read-outs taken while other domains are still
    recording are point-in-time snapshots, not linearizable cuts.

    Timing comes from an injectable monotonic {!Clock.t}; tests install
    a {!Clock.Fake} and assert byte-exact sink output. *)

module Json = Json
(** Re-export of the JSON module all sinks emit; [Check.Json] is the
    same module, re-exported for the analyzer's certificates. *)

(** {1 Clocks} *)

module Clock : sig
  type t = unit -> int64
  (** Nanoseconds from an arbitrary fixed origin; must be monotone. *)

  val monotonic : t
  (** The process monotonic clock ([CLOCK_MONOTONIC]). *)

  (** Deterministic clock for tests: time advances only when told. *)
  module Fake : sig
    type nonrec clock = t
    type t

    val create : ?now:int64 -> unit -> t
    (** Fresh fake clock, initially at [now] (default [0L]). *)

    val clock : t -> clock
    val advance : t -> int64 -> unit
    val set : t -> int64 -> unit
  end
end

(** {1 Values, traces and spans} *)

(** Span attribute values. Rationals are carried exactly and encoded
    as ["p/q"] strings in every sink. *)
type value =
  | Int of int
  | Str of string
  | Rat of Rat.t
  | Bool of bool

(** A per-request trace context. Created at admission (trace id =
    the wire [id=], or a synthesized request index), threaded through
    every stage that works on the request, and installed around the
    stage's spans with {!with_trace}. Span ids are handed out from a
    per-trace counter, so they are deterministic as long as the
    request's stages run sequentially — which the engine guarantees. *)
module Trace : sig
  type t

  val make : string -> t
  (** Fresh context with the given trace id; the next span opened
      under it takes span id {!root}. *)

  val id : t -> string

  val root : int
  (** The span id ([1]) of the first span opened under a fresh
      context — by convention the request's admission span. Later
      stages pass it as [~parent] to {!with_trace} so the request's
      spans form one tree. *)

  val started : t -> bool
  (** Whether any span has been opened under this context yet — i.e.
      whether {!root} names a real span to parent to. *)
end

type span = {
  name : string;  (** Dotted, layer-first: ["simplex.phase1"]. *)
  start_ns : int64;  (** Clock reading at entry. *)
  dur_ns : int64;
  depth : int;  (** Nesting depth at entry; 0 for top-level spans. *)
  attrs : (string * value) list;
  trace_id : string option;  (** The owning request, when traced. *)
  span_id : int;  (** Per-trace id; [0] when untraced. *)
  parent_id : int;  (** Enclosing span's id; [0] for roots. *)
}

(** {1 Histograms} *)

(** Fixed-size histogram with power-of-two buckets keyed by bit count:
    bucket [k >= 1] holds values [v] with [2^(k-1) <= v < 2^k], bucket
    [0] holds [v <= 0]. The bucket index of a {!Rat.bit_size}
    observation is therefore logarithmic in the operand's magnitude
    and linear in its size — the right resolution for watching exact
    coefficients blow up. *)
module Histogram : sig
  type t

  val create : unit -> t
  val observe : t -> int -> unit
  val count : t -> int
  val sum : t -> int

  val min : t -> int
  (** [0] when empty. *)

  val max : t -> int
  (** [0] when empty. *)

  val mean : t -> float

  val buckets : t -> (int * int) list
  (** Non-empty buckets as [(bucket_index, count)], ascending. *)

  val merge : into:t -> t -> unit
end

(** {1 Rolling latency windows}

    Time-windowed latency histograms: a ring of one-second slices over
    the recorder clock holding log₂-microsecond buckets (bucket
    [k >= 1] counts latencies [v] µs with [2^(k-1) <= v < 2^k]), a ten
    second window in total. Slices age out lazily, so the snapshot at
    time [t] covers exactly the observations of the last
    {!Rolling.window_ns} nanoseconds of clock time — byte-stable under
    {!Clock.Fake}. Quantiles are bucket upper bounds ([2^k - 1] µs),
    computed in integer arithmetic. *)
module Rolling : sig
  type t

  val window_ns : int64
  (** Width of the rolling window (ten seconds). *)

  type snapshot = {
    window_ns : int64;
    count : int;
    sum_us : int;
    max_us : int;
    p50_us : int;
    p99_us : int;
    p999_us : int;
    buckets : (int * int) list;  (** non-empty [(bucket, count)], ascending *)
  }
end

(** {1 Recorders} *)

type t
(** A recorder: collects spans, counters, histograms and rolling
    windows against one clock, sharded per Domain. Worker Domains (the
    engine's pool) record into the ambient recorder concurrently
    without contending on any lock. The intended use is one ambient
    recorder per process (or per experiment, swapped with
    {!with_recorder}); installing/swapping recorders from several
    domains at once is not coordinated. *)

val create : ?clock:Clock.t -> unit -> t
(** Fresh recorder; its epoch is the clock reading at creation, and
    all exported timestamps are relative to it. *)

val set_current : t option -> unit
(** Install ([Some r]) or remove ([None]) the ambient recorder. *)

val current : unit -> t option

val enabled : unit -> bool
(** Whether a recorder is installed. Guard expensive measurement code
    with this; {!span}/{!incr}/{!observe} already check it. *)

val with_recorder : t -> (unit -> 'a) -> 'a
(** Run with [r] ambient, restoring the previous recorder on exit
    (also on exceptions). *)

val now_ns : unit -> int64
(** The ambient recorder's clock reading — deterministic under a fake
    clock — or the process monotonic clock when disabled. Timing code
    on the serve path reads time through this so telemetry tests stay
    byte-exact. *)

(** {1 Instrumentation} *)

val span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] and records a completed span; when no
    recorder is installed it is exactly [f ()]. The span is recorded
    even when [f] raises (the exception is re-raised). Under
    {!with_trace} the span also carries the trace id, a per-trace span
    id and its parent's span id. *)

val with_trace : ?parent:int -> Trace.t -> (unit -> 'a) -> 'a
(** Run [f] with the given trace context current on this domain:
    spans opened inside carry the context's trace id and parent-link
    to each other. [parent] (default none) seeds the parent of the
    outermost spans — stages running on other domains pass
    {!Trace.root} to hang their spans under the request's admission
    span. No-op when disabled. *)

val incr : ?by:int -> string -> unit
(** Bump a named counter (created at zero on first use). Resilience
    events flow through here too: ["resilience.degradations"] counts
    serve-ladder rung drops and ["fault.trips"] counts fired
    fault-injection triggers. *)

val observe : string -> int -> unit
(** Record one value into a named histogram. *)

val observe_bits : string -> Rat.t -> unit
(** [observe name (Rat.bit_size q)], with the bit-size computation
    skipped entirely when disabled. *)

val observe_latency_ns : string -> int64 -> unit
(** Record one latency (a nanosecond duration, bucketed in
    microseconds) into a named rolling window at the current clock
    time. The serve path's timing sites use this; bit-size histograms
    stay reserved for coefficient blow-up. *)

val counter_value : string -> int
(** Current ambient value of a counter; [0] when disabled or never
    bumped. Used to compute per-phase deltas of a shared counter. *)

val rolling_value : string -> Rolling.snapshot option
(** Snapshot of an ambient rolling window at the current clock time;
    [None] when disabled or never observed. *)

(** {1 Read-out}

    All read-outs merge the per-domain shards: counters add,
    histograms merge bucket-wise, rolling slices sum keyed by absolute
    slice index — associative and commutative, so the result does not
    depend on domain count or registration order. *)

val spans : t -> span list
(** In completion order within each domain's shard (a parent span
    follows its children), shards concatenated in domain-id order. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val counter : t -> string -> int
val histograms : t -> (string * Histogram.t) list
val histogram : t -> string -> Histogram.t option

val histogram_max : t -> string -> int
(** [0] when the histogram does not exist or is empty. *)

val rollings : t -> (string * Rolling.snapshot) list
(** Every rolling window, snapshotted at the recorder clock's current
    reading; sorted by name. *)

val rolling : t -> string -> Rolling.snapshot option

val merge_into : into:t -> t -> unit
(** Add [src]'s counters, histograms and rolling windows into [into]
    (into the calling domain's shard of it). Spans are not merged:
    their timestamps are only meaningful against their own recorder's
    clock and epoch. *)

val reset : t -> unit

(** {1 Sinks} *)

val render_text : t -> string
(** Human-readable summary: spans aggregated by name (call count and
    total wall time), then counters, then histogram statistics, then
    rolling-window quantiles. *)

val to_json_lines : t -> string
(** One JSON object per line: every span (with [start_ns]/[dur_ns]
    relative to the recorder epoch; traced spans additionally carry
    [trace_id]/[span_id]/[parent_id]), then counters, then histograms,
    then rolling windows, each tagged with a ["type"] field. *)

val metrics_to_json : t -> Json.t
(** Counters, histograms and (when any exist) rolling windows — no
    spans — as a single JSON object: the shape embedded in BENCH
    records. *)

val to_chrome_trace : t -> Json.t
(** The [{"traceEvents": [...]}] Chrome trace-event document: spans as
    ["ph":"X"] complete events (timestamps in integer microseconds
    relative to the epoch, exact nanoseconds preserved under [args]),
    counters as ["ph":"C"] events. Traced spans are assigned one lane
    ([tid]) per trace id — named by a ["thread_name"] metadata event —
    so each request reads as one horizontal track; untraced spans stay
    on lane 1. Loadable in chrome://tracing and Perfetto. *)

val write_chrome_trace : t -> string -> unit
(** Write {!to_chrome_trace} to a file, with a trailing newline. *)
