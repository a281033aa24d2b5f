(* Ambient observability: spans, counters, exact-arithmetic
   histograms, rolling latency windows and request traces; see
   obs.mli.

   Design constraints, in order:
   1. Zero cost when disabled — every instrumentation entry point is a
      single ref read plus a branch, and anything expensive to compute
      (bit sizes, density scans) is behind [enabled ()] at the call
      site.
   2. Lock-free on the enabled hot path — the recorder is sharded
      per Domain: each domain records into its own shard (reached
      through [Domain.DLS]), and the only mutex in the module guards
      shard registration and read-out, never a span/counter/histogram
      write. Read-out merges the shards with associative, commutative
      folds, so the merged view is independent of domain count.
   3. Deterministic under a fake clock — all timing flows through an
      injectable [Clock.t], so tests can assert byte-exact output.
   4. No dependencies beyond the rational stack and the monotonic
      clock stub that is already in the build. *)

module Json = Json

(* ------------------------------------------------------------------ *)
(* Clocks                                                              *)
(* ------------------------------------------------------------------ *)

module Clock = struct
  type t = unit -> int64

  let monotonic : t = Monotonic_clock.now

  module Fake = struct
    type nonrec clock = t
    (* analysis: domain-local — the fake clock is a test harness,
       advanced and read from the test's single domain. *)
    type t = { mutable now_ns : int64 }

    let create ?(now = 0L) () = { now_ns = now }
    let clock t () = t.now_ns
    let advance t d = t.now_ns <- Int64.add t.now_ns d
    let set t v = t.now_ns <- v
  end
end

(* ------------------------------------------------------------------ *)
(* Attribute values                                                    *)
(* ------------------------------------------------------------------ *)

type value =
  | Int of int
  | Str of string
  | Rat of Rat.t
  | Bool of bool

let value_to_json = function
  | Int i -> Json.Int i
  | Str s -> Json.Str s
  | Rat q -> Json.rat q
  | Bool b -> Json.Bool b

(* ------------------------------------------------------------------ *)
(* Trace contexts                                                      *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  (* The span-id counter is Atomic only so a context can legally cross
     domains (admit on the event loop, sample on a worker); within one
     request the stages run sequentially, so ids stay deterministic. *)
  type t = { trace_id : string; next_span : int Atomic.t }

  let make trace_id = { trace_id; next_span = Atomic.make 1 }
  let id t = t.trace_id

  (* The first span opened under a fresh context — by convention the
     request's admission span — always takes span id [root]; later
     stages on other domains parent to it. *)
  let root = 1

  let started t = Atomic.get t.next_span > root
end

type span = {
  name : string;
  start_ns : int64;
  dur_ns : int64;
  depth : int;
  attrs : (string * value) list;
  trace_id : string option;
  span_id : int;  (* 0 when untraced *)
  parent_id : int;  (* 0 for trace roots and untraced spans *)
}

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* Power-of-two buckets keyed by bit count: bucket [k >= 1] counts
     observations [v] with [2^(k-1) <= v < 2^k]; bucket 0 counts
     [v <= 0]. Bit-count bucketing matches the quantity we histogram
     most — Rat.bit_size — where the bucket index is then linear in
     the operand's size. *)
  let nbuckets = 64

  (* analysis: domain-local — a histogram lives inside one recorder
     shard and is mutated only by the domain that owns the shard;
     cross-domain read-out is a merge of such single-writer shards. *)
  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
  }

  let create () =
    { buckets = Array.make nbuckets 0; count = 0; sum = 0; min_v = max_int; max_v = min_int }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let bits = ref 0 in
      let x = ref v in
      while !x <> 0 do
        incr bits;
        x := !x lsr 1
      done;
      Stdlib.min (nbuckets - 1) !bits
    end

  let observe t v =
    let b = bucket_of v in
    t.buckets.(b) <- t.buckets.(b) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let count t = t.count
  let sum t = t.sum
  let min t = if t.count = 0 then 0 else t.min_v
  let max t = if t.count = 0 then 0 else t.max_v
  (* analysis: float-ok — mean is a reporting-only readout; histogram
     state itself stays integral. *)
  let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

  let buckets t =
    let out = ref [] in
    for k = nbuckets - 1 downto 0 do
      if t.buckets.(k) > 0 then out := (k, t.buckets.(k)) :: !out
    done;
    !out

  let merge ~into src =
    Array.iteri (fun k c -> into.buckets.(k) <- into.buckets.(k) + c) src.buckets;
    into.count <- into.count + src.count;
    into.sum <- into.sum + src.sum;
    if src.count > 0 then begin
      if src.min_v < into.min_v then into.min_v <- src.min_v;
      if src.max_v > into.max_v then into.max_v <- src.max_v
    end
end

(* ------------------------------------------------------------------ *)
(* Rolling latency windows                                             *)
(* ------------------------------------------------------------------ *)

module Rolling = struct
  (* A ring of time slices over the recorder clock. Slice [s] covers
     absolute time [s*slice_ns, (s+1)*slice_ns); observing into a slot
     whose resident slice has aged out of the ring lazily reclaims it.
     Buckets are log₂-microsecond: bucket [k >= 1] counts latencies
     [v] µs with [2^(k-1) <= v < 2^k], bucket 0 counts [v <= 0].
     Because slots are keyed by the absolute slice index, merging the
     per-domain rings at read-out is a plain keyed bucket sum —
     associative and commutative. *)
  let nbuckets = 32
  let slices = 10
  let slice_ns = 1_000_000_000L
  let window_ns = Int64.mul (Int64.of_int slices) slice_ns

  (* analysis: domain-local — a rolling window lives inside one
     recorder shard and is mutated only by the domain that owns the
     shard; read-out is a keyed merge of such single-writer rings. *)
  type slot = {
    mutable id : int;  (* absolute slice index; -1 = empty *)
    buckets : int array;
    mutable count : int;
    mutable sum_us : int;
    mutable max_us : int;
  }

  type t = { slots : slot array }

  let create () =
    {
      slots =
        Array.init slices (fun _ ->
            { id = -1; buckets = Array.make nbuckets 0; count = 0; sum_us = 0; max_us = 0 });
    }

  let bucket_of_us v =
    if v <= 0 then 0
    else begin
      let bits = ref 0 in
      let x = ref v in
      while !x <> 0 do
        incr bits;
        x := !x lsr 1
      done;
      Stdlib.min (nbuckets - 1) !bits
    end

  let clear_slot slot id =
    slot.id <- id;
    Array.fill slot.buckets 0 nbuckets 0;
    slot.count <- 0;
    slot.sum_us <- 0;
    slot.max_us <- 0

  let observe t ~now_ns us =
    let slice = Int64.to_int (Int64.div now_ns slice_ns) in
    let slot = t.slots.(slice mod slices) in
    if slot.id <> slice then clear_slot slot slice;
    let b = bucket_of_us us in
    slot.buckets.(b) <- slot.buckets.(b) + 1;
    slot.count <- slot.count + 1;
    slot.sum_us <- slot.sum_us + us;
    if us > slot.max_us then slot.max_us <- us

  type snapshot = {
    window_ns : int64;
    count : int;
    sum_us : int;
    max_us : int;
    p50_us : int;
    p99_us : int;
    p999_us : int;
    buckets : (int * int) list;  (* non-empty (bucket, count), ascending *)
  }

  (* Quantile q = num/den over the merged window: the upper bound
     (2^k - 1 µs) of the first bucket whose cumulative count reaches
     ceil(q * total). Integer arithmetic throughout, so the readout is
     byte-stable under a fake clock. *)
  let quantile buckets total ~num ~den =
    if total = 0 then 0
    else begin
      let rank = ((num * total) + den - 1) / den in
      let cum = ref 0 in
      let result = ref ((1 lsl (nbuckets - 1)) - 1) in
      (try
         Array.iteri
           (fun k c ->
             cum := !cum + c;
             if !cum >= rank then begin
               result := (if k = 0 then 0 else (1 lsl k) - 1);
               raise Exit
             end)
           buckets
       with Exit -> ());
      !result
    end

  (* Merge the in-window slots of several rings (one per shard) into
     one snapshot, read at [now_ns]. *)
  let snapshot_of ts ~now_ns =
    let slice_now = Int64.to_int (Int64.div now_ns slice_ns) in
    let lo = slice_now - slices + 1 in
    let buckets = Array.make nbuckets 0 in
    let count = ref 0 and sum_us = ref 0 and max_us = ref 0 in
    List.iter
      (fun t ->
        Array.iter
          (fun slot ->
            if slot.id >= lo && slot.id <= slice_now then begin
              Array.iteri (fun k c -> buckets.(k) <- buckets.(k) + c) slot.buckets;
              count := !count + slot.count;
              sum_us := !sum_us + slot.sum_us;
              if slot.max_us > !max_us then max_us := slot.max_us
            end)
          t.slots)
      ts;
    let bucket_list = ref [] in
    for k = nbuckets - 1 downto 0 do
      if buckets.(k) > 0 then bucket_list := (k, buckets.(k)) :: !bucket_list
    done;
    {
      window_ns;
      count = !count;
      sum_us = !sum_us;
      max_us = !max_us;
      p50_us = quantile buckets !count ~num:1 ~den:2;
      p99_us = quantile buckets !count ~num:99 ~den:100;
      p999_us = quantile buckets !count ~num:999 ~den:1000;
      buckets = !bucket_list;
    }

  (* Keyed slot merge for recorder-to-recorder aggregation: same
     absolute slice adds, a newer slice replaces, an older one is
     dropped. *)
  let merge ~into src =
    Array.iter
      (fun s ->
        if s.id >= 0 then begin
          let slot = into.slots.(s.id mod slices) in
          if slot.id = s.id then begin
            Array.iteri (fun k c -> slot.buckets.(k) <- slot.buckets.(k) + c) s.buckets;
            slot.count <- slot.count + s.count;
            slot.sum_us <- slot.sum_us + s.sum_us;
            if s.max_us > slot.max_us then slot.max_us <- s.max_us
          end
          else if s.id > slot.id then begin
            clear_slot slot s.id;
            Array.blit s.buckets 0 slot.buckets 0 nbuckets;
            slot.count <- s.count;
            slot.sum_us <- s.sum_us;
            slot.max_us <- s.max_us
          end
        end)
      src.slots
end

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)
(* ------------------------------------------------------------------ *)

(* One shard per (recorder, domain): the owning domain mutates it
   without any lock; other domains only see it through the merge
   read-outs below. *)
(* analysis: domain-local — single-writer by construction: a shard is
   created by and handed only to the domain whose id it carries (see
   [shard_of]); every mutation happens on that domain, and read-out
   merges are point-in-time snapshots. *)
type shard = {
  domain : int;
  mutable sdepth : int;
  mutable spans_rev : span list;
  mutable open_rev : int list;  (* span ids of open traced spans, innermost first *)
  mutable trace : Trace.t option;  (* current trace context on this domain *)
  s_counters : (string, int ref) Hashtbl.t;
  s_histograms : (string, Histogram.t) Hashtbl.t;
  s_rollings : (string, Rolling.t) Hashtbl.t;
}

type t = {
  rid : int;  (* process-unique, keys the per-domain shard cache *)
  clock : Clock.t;
  epoch_ns : int64;
  mu : Mutex.t;  (* guards [shards] (registration + read-out), never the hot path *)
  mutable shards : shard list;
}

let next_rid = Atomic.make 1

let create ?(clock = Clock.monotonic) () =
  {
    rid = Atomic.fetch_and_add next_rid 1;
    clock;
    epoch_ns = clock ();
    mu = Mutex.create ();
    shards = [];
  }

(* analysis: domain-local — the ambient recorder is one word: reads
   and installs are single-word loads/stores of an immutable option,
   so no torn value is observable; per-domain recorder state lives in
   the DLS shards below. *)
let ambient : t option ref = ref None

(* The per-domain shard cache: which recorder the domain last recorded
   into, and its shard of it. A hit is the whole hot-path cost — one
   DLS load plus an integer compare; a miss (first record on this
   domain, or a recorder swap) takes the recorder mutex once to
   register. *)
let shard_cache : (int * shard) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let fresh_shard domain =
  {
    domain;
    sdepth = 0;
    spans_rev = [];
    open_rev = [];
    trace = None;
    s_counters = Hashtbl.create 16;
    s_histograms = Hashtbl.create 16;
    s_rollings = Hashtbl.create 4;
  }

let shard_of r =
  let cache = Domain.DLS.get shard_cache in
  match !cache with
  | Some (rid, s) when rid = r.rid -> s
  | _ ->
    let domain = (Domain.self () :> int) in
    Mutex.protect r.mu (fun () ->
        let s =
          match List.find_opt (fun s -> s.domain = domain) r.shards with
          | Some s -> s
          | None ->
            let s = fresh_shard domain in
            r.shards <- s :: r.shards;
            s
        in
        cache := Some (r.rid, s);
        s)

(* Shards ordered by domain id: read-out order is then independent of
   registration races between domains. *)
let shards_snapshot r =
  Mutex.protect r.mu (fun () -> r.shards)
  |> List.sort (fun a b -> compare a.domain b.domain)

let set_current o = ambient := o

let current () = !ambient

let enabled () =
  match !ambient with
  | Some _ -> true
  | None -> false

let with_recorder r f =
  let prev = !ambient in
  ambient := Some r;
  Fun.protect ~finally:(fun () -> ambient := prev) f

let now_ns () =
  match !ambient with
  | None -> Clock.monotonic ()
  | Some r -> r.clock ()

(* ------------------------------------------------------------------ *)
(* Instrumentation entry points                                        *)
(* ------------------------------------------------------------------ *)

let span ?(attrs = []) name f =
  match !ambient with
  | None -> f ()
  | Some r ->
    let s = shard_of r in
    let start_ns = r.clock () in
    let depth = s.sdepth in
    s.sdepth <- depth + 1;
    let trace = s.trace in
    let span_id, parent_id =
      match trace with
      | None -> (0, 0)
      | Some tr ->
        let id = Atomic.fetch_and_add tr.Trace.next_span 1 in
        let parent = match s.open_rev with [] -> 0 | p :: _ -> p in
        s.open_rev <- id :: s.open_rev;
        (id, parent)
    in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = r.clock () in
        s.sdepth <- depth;
        (match trace with
        | None -> ()
        | Some _ -> ( match s.open_rev with _ :: tl -> s.open_rev <- tl | [] -> ()));
        s.spans_rev <-
          {
            name;
            start_ns;
            dur_ns = Int64.sub stop_ns start_ns;
            depth;
            attrs;
            trace_id = Option.map Trace.id trace;
            span_id;
            parent_id;
          }
          :: s.spans_rev)
      f

let with_trace ?(parent = 0) tr f =
  match !ambient with
  | None -> f ()
  | Some r ->
    let s = shard_of r in
    let prev_trace = s.trace and prev_open = s.open_rev in
    s.trace <- Some tr;
    s.open_rev <- (if parent = 0 then [] else [ parent ]);
    Fun.protect
      ~finally:(fun () ->
        s.trace <- prev_trace;
        s.open_rev <- prev_open)
      f

let counter_cell s name =
  match Hashtbl.find_opt s.s_counters name with
  | Some c -> c
  | None ->
    let c = ref 0 in
    Hashtbl.add s.s_counters name c;
    c

let incr ?(by = 1) name =
  match !ambient with
  | None -> ()
  | Some r ->
    let c = counter_cell (shard_of r) name in
    c := !c + by

let histogram_cell s name =
  match Hashtbl.find_opt s.s_histograms name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.add s.s_histograms name h;
    h

let observe name v =
  match !ambient with
  | None -> ()
  | Some r -> Histogram.observe (histogram_cell (shard_of r) name) v

let observe_bits name q =
  match !ambient with
  | None -> ()
  | Some r ->
    let bits = Rat.bit_size q in
    Histogram.observe (histogram_cell (shard_of r) name) bits

let rolling_cell s name =
  match Hashtbl.find_opt s.s_rollings name with
  | Some w -> w
  | None ->
    let w = Rolling.create () in
    Hashtbl.add s.s_rollings name w;
    w

let observe_latency_ns name dur_ns =
  match !ambient with
  | None -> ()
  | Some r ->
    let us = Int64.to_int (Int64.div dur_ns 1000L) in
    Rolling.observe (rolling_cell (shard_of r) name) ~now_ns:(r.clock ()) us

(* ------------------------------------------------------------------ *)
(* Read-out (merged across shards)                                     *)
(* ------------------------------------------------------------------ *)

let spans r =
  shards_snapshot r |> List.concat_map (fun s -> List.rev s.spans_rev)

(* analysis: order-insensitive — counter addition is commutative; the
   accumulated table is only ever read sorted by name. *)
let sum_counters shards =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun k c ->
          match Hashtbl.find_opt acc k with
          | Some cell -> cell := !cell + !c
          | None -> Hashtbl.add acc k (ref !c))
        s.s_counters)
    shards;
  acc

(* analysis: order-insensitive — the fold's result is immediately
   sorted by counter name. *)
let counters r =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) (sum_counters (shards_snapshot r)) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counter r name =
  List.fold_left
    (fun acc s ->
      match Hashtbl.find_opt s.s_counters name with Some c -> acc + !c | None -> acc)
    0 (shards_snapshot r)

let counter_value name =
  match !ambient with
  | None -> 0
  | Some r -> counter r name

(* analysis: order-insensitive — histogram merge is a commutative
   bucket-wise sum; the accumulated table is only ever read sorted. *)
let merged_histograms shards =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun k h ->
          match Hashtbl.find_opt acc k with
          | Some into -> Histogram.merge ~into h
          | None ->
            let into = Histogram.create () in
            Histogram.merge ~into h;
            Hashtbl.add acc k into)
        s.s_histograms)
    shards;
  acc

(* analysis: order-insensitive — the fold's result is immediately
   sorted by histogram name. *)
let histograms r =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) (merged_histograms (shards_snapshot r)) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histogram r name =
  let parts =
    List.filter_map (fun s -> Hashtbl.find_opt s.s_histograms name) (shards_snapshot r)
  in
  match parts with
  | [] -> None
  | parts ->
    let into = Histogram.create () in
    List.iter (fun h -> Histogram.merge ~into h) parts;
    Some into

let histogram_max r name =
  match histogram r name with Some h -> Histogram.max h | None -> 0

(* analysis: order-insensitive — name collection into a set, read back
   sorted; visit order cannot affect the result. *)
let rolling_names shards =
  let acc = Hashtbl.create 4 in
  List.iter
    (fun s -> Hashtbl.iter (fun k _ -> Hashtbl.replace acc k ()) s.s_rollings)
    shards;
  Hashtbl.fold (fun k () names -> k :: names) acc [] |> List.sort String.compare

let rolling_snapshot_at shards name ~now_ns =
  match List.filter_map (fun s -> Hashtbl.find_opt s.s_rollings name) shards with
  | [] -> None
  | rings -> Some (Rolling.snapshot_of rings ~now_ns)

let rollings r =
  let shards = shards_snapshot r in
  let now_ns = r.clock () in
  List.filter_map
    (fun name ->
      Option.map (fun snap -> (name, snap)) (rolling_snapshot_at shards name ~now_ns))
    (rolling_names shards)

let rolling r name = rolling_snapshot_at (shards_snapshot r) name ~now_ns:(r.clock ())

let rolling_value name =
  match !ambient with
  | None -> None
  | Some r -> rolling r name

(* analysis: order-insensitive — counter addition, histogram merge and
   keyed rolling-slice merge are all commutative, so the visit order
   cannot affect the merged recorder. *)
let merge_into ~into src =
  let dst = shard_of into in
  let shards = shards_snapshot src in
  Hashtbl.iter
    (fun k c ->
      let cell = counter_cell dst k in
      cell := !cell + !c)
    (sum_counters shards);
  Hashtbl.iter
    (fun k h -> Histogram.merge ~into:(histogram_cell dst k) h)
    (merged_histograms shards);
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun k w -> Rolling.merge ~into:(rolling_cell dst k) w)
        s.s_rollings)
    shards

let reset r =
  Mutex.protect r.mu (fun () ->
      List.iter
        (fun s ->
          s.sdepth <- 0;
          s.spans_rev <- [];
          s.open_rev <- [];
          s.trace <- None;
          Hashtbl.reset s.s_counters;
          Hashtbl.reset s.s_histograms;
          Hashtbl.reset s.s_rollings)
        r.shards)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(* analysis: order-insensitive — the per-name aggregation fold feeds an
   immediate sort by span name. *)
(* analysis: float-ok — millisecond formatting for the human text sink
   only; exported data keeps exact nanoseconds. *)
let render_text r =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let agg = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let calls, total =
        match Hashtbl.find_opt agg s.name with
        | Some v -> v
        | None -> (0, 0L)
      in
      Hashtbl.replace agg s.name (calls + 1, Int64.add total s.dur_ns))
    (spans r);
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  if rows <> [] then begin
    add "spans:\n";
    List.iter
      (fun (name, (calls, total)) ->
        add "  %-34s %7d call(s) %12.3f ms\n" name calls (Int64.to_float total /. 1e6))
      rows
  end;
  let cs = counters r in
  if cs <> [] then begin
    add "counters:\n";
    List.iter (fun (k, v) -> add "  %-34s %d\n" k v) cs
  end;
  let hs = histograms r in
  if hs <> [] then begin
    add "histograms:\n";
    List.iter
      (fun (k, h) ->
        add "  %-34s n=%d min=%d max=%d mean=%.1f\n" k (Histogram.count h) (Histogram.min h)
          (Histogram.max h) (Histogram.mean h))
      hs
  end;
  let ws = rollings r in
  if ws <> [] then begin
    add "rolling (last %Lds):\n" (Int64.div Rolling.window_ns 1_000_000_000L);
    List.iter
      (fun (k, (w : Rolling.snapshot)) ->
        add "  %-34s n=%d p50=%dus p99=%dus p999=%dus max=%dus\n" k w.Rolling.count
          w.Rolling.p50_us w.Rolling.p99_us w.Rolling.p999_us w.Rolling.max_us)
      ws
  end;
  Buffer.contents buf

let rel_ns r ns = Int64.to_int (Int64.sub ns r.epoch_ns)

let span_to_json r s =
  let trace_fields =
    match s.trace_id with
    | None -> []
    | Some tid ->
      [
        ("trace_id", Json.Str tid);
        ("span_id", Json.Int s.span_id);
        ("parent_id", Json.Int s.parent_id);
      ]
  in
  Json.Obj
    ([
       ("type", Json.Str "span");
       ("name", Json.Str s.name);
       ("start_ns", Json.Int (rel_ns r s.start_ns));
       ("dur_ns", Json.Int (Int64.to_int s.dur_ns));
       ("depth", Json.Int s.depth);
     ]
    @ trace_fields
    @ [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) s.attrs)) ])

let histogram_to_json h =
  Json.Obj
    [
      ("count", Json.Int (Histogram.count h));
      ("sum", Json.Int (Histogram.sum h));
      ("min", Json.Int (Histogram.min h));
      ("max", Json.Int (Histogram.max h));
      ( "buckets",
        Json.List
          (List.map (fun (k, c) -> Json.List [ Json.Int k; Json.Int c ]) (Histogram.buckets h)) );
    ]

let rolling_to_json (w : Rolling.snapshot) =
  Json.Obj
    [
      ("window_ns", Json.Int (Int64.to_int w.Rolling.window_ns));
      ("count", Json.Int w.Rolling.count);
      ("sum_us", Json.Int w.Rolling.sum_us);
      ("max_us", Json.Int w.Rolling.max_us);
      ("p50_us", Json.Int w.Rolling.p50_us);
      ("p99_us", Json.Int w.Rolling.p99_us);
      ("p999_us", Json.Int w.Rolling.p999_us);
      ( "buckets",
        Json.List
          (List.map (fun (k, c) -> Json.List [ Json.Int k; Json.Int c ]) w.Rolling.buckets) );
    ]

let to_json_lines r =
  let buf = Buffer.create 1024 in
  let line j = Buffer.add_string buf (Json.to_string j ^ "\n") in
  List.iter (fun s -> line (span_to_json r s)) (spans r);
  List.iter
    (fun (k, v) ->
      line (Json.Obj [ ("type", Json.Str "counter"); ("name", Json.Str k); ("value", Json.Int v) ]))
    (counters r);
  List.iter
    (fun (k, h) ->
      match histogram_to_json h with
      | Json.Obj fields ->
        line (Json.Obj (("type", Json.Str "histogram") :: ("name", Json.Str k) :: fields))
      | j -> line j)
    (histograms r);
  List.iter
    (fun (k, w) ->
      match rolling_to_json w with
      | Json.Obj fields ->
        line (Json.Obj (("type", Json.Str "rolling") :: ("name", Json.Str k) :: fields))
      | j -> line j)
    (rollings r);
  Buffer.contents buf

let metrics_to_json r =
  let base =
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters r)));
      ("histograms", Json.Obj (List.map (fun (k, h) -> (k, histogram_to_json h)) (histograms r)));
    ]
  in
  (* Rolling windows only appear once something has been observed into
     one, so recorders that never record latency keep the PR-2 metrics
     shape byte-for-byte. *)
  match rollings r with
  | [] -> Json.Obj base
  | ws -> Json.Obj (base @ [ ("rollings", Json.Obj (List.map (fun (k, w) -> (k, rolling_to_json w)) ws)) ])

(* Chrome trace-event JSON (the {"traceEvents": [...]} object form),
   loadable in chrome://tracing and Perfetto. Timestamps are integer
   microseconds relative to the recorder's epoch; the exact nanosecond
   values ride along in [args] so nothing is lost to rounding. Traced
   spans are fanned out into one lane (tid) per trace id, so a single
   request reads as one horizontal track end-to-end; untraced spans
   stay on lane 1. *)
let to_chrome_trace r =
  let us ns = Int64.to_int (Int64.div ns 1000L) in
  let all_spans = spans r in
  let trace_ids =
    List.filter_map (fun s -> s.trace_id) all_spans |> List.sort_uniq String.compare
  in
  let lane tid =
    match List.find_index (String.equal tid) trace_ids with
    | Some i -> i + 2
    | None -> 1
  in
  let lane_meta =
    List.map
      (fun tid ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int (lane tid));
            ("args", Json.Obj [ ("name", Json.Str ("trace " ^ tid)) ]);
          ])
      trace_ids
  in
  let span_events =
    List.map
      (fun s ->
        let cat =
          match String.index_opt s.name '.' with
          | Some i -> String.sub s.name 0 i
          | None -> s.name
        in
        let trace_args =
          match s.trace_id with
          | None -> []
          | Some tid ->
            [
              ("trace_id", Json.Str tid);
              ("span_id", Json.Int s.span_id);
              ("parent_id", Json.Int s.parent_id);
            ]
        in
        Json.Obj
          [
            ("name", Json.Str s.name);
            ("cat", Json.Str cat);
            ("ph", Json.Str "X");
            ("ts", Json.Int (us (Int64.sub s.start_ns r.epoch_ns)));
            ("dur", Json.Int (us s.dur_ns));
            ("pid", Json.Int 1);
            ("tid", Json.Int (match s.trace_id with None -> 1 | Some tid -> lane tid));
            ( "args",
              Json.Obj
                (("start_ns", Json.Int (rel_ns r s.start_ns))
                 :: ("dur_ns", Json.Int (Int64.to_int s.dur_ns))
                 :: (trace_args @ List.map (fun (k, v) -> (k, value_to_json v)) s.attrs)) );
          ])
      all_spans
  in
  let end_ts =
    List.fold_left
      (fun acc s -> Stdlib.max acc (us (Int64.add (Int64.sub s.start_ns r.epoch_ns) s.dur_ns)))
      0 all_spans
  in
  let counter_events =
    List.map
      (fun (k, v) ->
        Json.Obj
          [
            ("name", Json.Str k);
            ("ph", Json.Str "C");
            ("ts", Json.Int end_ts);
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ("args", Json.Obj [ ("value", Json.Int v) ]);
          ])
      (counters r)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (lane_meta @ span_events @ counter_events));
      ("displayTimeUnit", Json.Str "ns");
    ]

let write_chrome_trace r file =
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_chrome_trace r));
      Out_channel.output_string oc "\n")
