(* The traced run: a workload's generated inputs replayed in-process,
   with every call into a layer's public functions wrapped in a span
   recorded by this harness (names ["layer.*"]). Nothing is traced
   inside lib/; the recorder is the existing [Obs] one, so the same
   pass also collects the library's own LP counters and histograms,
   and its Chrome-trace sink writes the trace.

   A layer's self time is its span's duration minus the part its child
   spans cover ([store.load] runs inside [engine.run_jobs], through the
   engine's tier callback). The replay is run twice, untraced and
   traced, on the same inputs: the ratio of the two walls is the
   tracing overhead. *)

module R = Engine.Request
module C = Engine.Compiled
module S = Minimax.Serve
module I = Check.Invariants

let prefix = "layer."
let span ?attrs name f = Obs.span ?attrs (prefix ^ name) f

type store_mode =
  | No_store
  | Write of string  (** compile misses are written back *)
  | Preloaded of string  (** a populated store: load_all, then the tier *)

type queries = {
  warm : Plan.item array;
      (** sent first and compiled untraced, as the e2e run warms up
          before timing *)
  items : Plan.item array;  (** the replayed requests, in send order *)
  batch : int;  (** requests per [run_jobs] call *)
  cache : int;
  store : store_mode;
}

(* What a pass produced besides its spans. *)
type tally = {
  mutable answers : (string * string list) list;  (** (request id, lines served), newest first *)
  mutable bytes : int;
  mutable lines : int;
  mutable compiles : int;
  mutable tailored : int;
}

let tally () = { answers = []; bytes = 0; lines = 0; compiles = 0; tailored = 0 }

let served t (item : Plan.item) lines =
  t.answers <- (item.Plan.id, lines) :: t.answers;
  List.iter
    (fun l ->
      t.bytes <- t.bytes + String.length l;
      t.lines <- t.lines + 1)
    lines

type pass = {
  tally : tally;
  wall : float;  (** the whole pass *)
  per_request : float;  (** seconds per replayed request, request loop only *)
  artifacts : C.t list;
  bits : int;  (** the largest session ledger at the end, in bits *)
}

let open_store dir =
  match Store.open_dir dir with
  | Ok s -> s
  | Error e -> failwith ("store " ^ dir ^ ": " ^ Store.error_to_string e)

let untraced f =
  let saved = Obs.current () in
  Obs.set_current None;
  Fun.protect ~finally:(fun () -> Obs.set_current saved) f

let timed f =
  let t0 = Load.now () in
  let v = f () in
  (v, Load.secs (Int64.sub (Load.now ()) t0))

(* The release audit [Compiled.compile] applies, through
   [Check.Invariants]: row-stochasticity and α-DP always, Theorem-2
   derivability on the geometric rungs. [query_pass] checks that it
   yields the certificates the engine's own audit does. *)
let certify ~alpha (served : S.served) =
  let matrix = Mech.Mechanism.matrix served.S.mechanism in
  let reports =
    [ I.row_stochastic matrix; I.alpha_dp ~alpha matrix ]
    @
    match served.S.provenance.S.rung with
    | S.Tailored -> []
    | S.Geometric_remap | S.Geometric_raw -> [ I.derivability ~alpha matrix ]
  in
  List.map
    (fun (r : I.report) ->
      match r.I.certificate with
      | Some c -> c
      | None -> failwith ("replay: a served release failed " ^ r.I.rule))
    reports

(* A compile, layer by layer: the serve ladder, the release audit and
   the alias tables — the artifact [Compiled.compile] builds, so served
   bytes do not change. *)
let compile_layers t ~key (req : R.t) =
  let alpha = req.R.alpha in
  let served = span "serve.ladder" (fun () -> S.serve ~alpha (R.consumer req)) in
  let certificates = span "check.certify" (fun () -> certify ~alpha served) in
  let sampler = span "alias.build" (fun () -> C.sampler_of_mechanism served.S.mechanism) in
  t.compiles <- t.compiles + 1;
  (match served.S.provenance.S.rung with
   | S.Tailored -> t.tailored <- t.tailored + 1
   | S.Geometric_remap | S.Geometric_raw -> ());
  { C.key; served; certificates; sampler }

let conns items = 1 + Array.fold_left (fun m (i : Plan.item) -> max m i.Plan.conn) 0 items

(* One pass over a query stream, with two sampling Domains like the
   daemon's [-w 2]. *)
let query_pass q =
  let t = tally () in
  let store = match q.store with No_store -> None | Write d | Preloaded d -> Some (open_store d) in
  let tier =
    match (q.store, store) with
    | Preloaded _, Some s ->
      let tier = Store.tier s in
      Some { tier with Engine.probe = (fun r -> span "store.load" (fun () -> tier.Engine.probe r)) }
    | _ -> None
  in
  let written = ref [] in
  let artifacts = Hashtbl.create 64 in
  let keep_artifact engine (w : R.wire) key =
    if not (Hashtbl.mem artifacts key) then
      Option.iter (Hashtbl.replace artifacts key) (Engine.artifact engine w.R.request)
  in
  let per_request, wall =
    Engine.with_engine ~domains:2 ~cache_capacity:q.cache ?tier (fun engine ->
        let seeders =
          Array.init (max (conns q.warm) (conns q.items)) (fun _ -> Engine.Seeder.create ())
        in
        let job (i : Plan.item) w = Reference.job seeders i.Plan.conn w in
        untraced (fun () ->
            let ws = Array.map (fun (i : Plan.item) -> (i, Reference.query i.Plan.line)) q.warm in
            ignore (Engine.run_jobs engine (Array.map (fun (i, w) -> job i w) ws));
            Array.iter (fun (_, (w : R.wire)) -> keep_artifact engine w (R.canonical_key w.R.request)) ws);
        timed (fun () ->
            (match (q.store, store) with
             | Preloaded _, Some s ->
               let loaded, _ = span "store.preload" (fun () -> Store.load_all s) in
               Engine.preload engine loaded
             | _ -> ());
            let n = Array.length q.items in
            let (), loop =
              timed (fun () ->
                  let i = ref 0 in
                  while !i < n do
                    let len = min q.batch (n - !i) in
                    let ws =
                      Array.init len (fun k ->
                          let item = q.items.(!i + k) in
                          let w = span "request.of_line" (fun () -> Reference.query item.Plan.line) in
                          let key =
                            span "request.canonical_key" (fun () -> R.canonical_key w.R.request)
                          in
                          (item, w, key))
                    in
                    (* Without a store tier every miss is compiled here,
                       layer by layer, and handed to the engine; the keys
                       of these workloads fit its cache, so a key compiled
                       once stays. *)
                    if Option.is_none tier then
                      Array.iter
                        (fun (_, (w : R.wire), key) ->
                          if not (Hashtbl.mem artifacts key) then begin
                            let c = compile_layers t ~key w.R.request in
                            (match store with
                             | Some s ->
                               ignore (span "store.write" (fun () -> Store.write s c));
                               written := key :: !written
                             | None -> ());
                            Engine.preload engine [ c ];
                            Hashtbl.replace artifacts key c
                          end)
                        ws;
                    let results =
                      span ~attrs:[ ("jobs", Obs.Int len) ] "engine.run_jobs" (fun () ->
                          Engine.run_jobs engine (Array.map (fun (i, w, _) -> job i w) ws))
                    in
                    Array.iteri
                      (fun k (item, (w : R.wire), key) ->
                        let line =
                          span "response.encode" (fun () ->
                              Reference.render_engine ?id:w.R.id results.(k))
                        in
                        served t item [ line ];
                        keep_artifact engine w key)
                      ws;
                    i := !i + len
                  done)
            in
            loop /. float_of_int (max 1 n)))
  in
  (* Untimed: loading an artifact back replays the engine's audit and
     refuses one whose stored certificates differ from it, so this
     fails when [certify] no longer matches [Compiled.compile]. *)
  Option.iter
    (fun s ->
      List.iter
        (fun key ->
          match Store.load s ~key with
          | Ok (Some _) -> ()
          | Ok None -> failwith ("replay: no stored artifact for " ^ key)
          | Error e -> failwith ("replay: " ^ key ^ ": " ^ Store.error_to_string e))
        !written)
    store;
  { tally = t; wall; per_request; artifacts = List.of_seq (Hashtbl.to_seq_values artifacts); bits = 0 }

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type sessions = { verbs : Plan.item array; checkpoint : string option }

(* One pass over session verbs, answered the way the daemon answers a
   connection that holds every subscription. *)
let session_pass s =
  let t = tally () in
  (match s.checkpoint with Some p when Sys.file_exists p -> Sys.remove p | _ -> ());
  let table =
    match Session.create ~seed:Reference.session_seed ?checkpoint:s.checkpoint () with
    | Ok table -> table
    | Error msg -> failwith msg
  in
  let subs = Hashtbl.create 16 in
  let members = ref [] in
  let (), wall =
    timed (fun () ->
        Array.iter
          (fun (item : Plan.item) ->
            let id, verb = span "request.of_line" (fun () -> Reference.session_verb item.Plan.line) in
            (match verb with
             | R.Subscribe { sub; n; input; _ } -> members := (sub, n, input) :: !members
             | _ -> ());
            let name = match verb with R.Release _ -> "session.release" | _ -> "session.verb" in
            let outcome = span name (fun () -> Reference.session_call table verb) in
            served t item
              (span "response.encode" (fun () -> Reference.session_lines subs ~id outcome)))
          s.verbs)
  in
  let bits =
    List.fold_left
      (fun m (sub, n, input) ->
        match Session.ledger table ~sub ~n ~input with
        | Ok v -> max m (Rat.bit_size v.Session.v_spent)
        | Error _ -> m)
      0 !members
  in
  { tally = t; wall; per_request = wall /. float_of_int (max 1 (Array.length s.verbs)); artifacts = []; bits }

(* ------------------------------------------------------------------ *)
(* Span accounting                                                     *)
(* ------------------------------------------------------------------ *)

type layer_span = { lname : string; start : int64; dur : int64; mutable self : int64; jobs : int }

(* The harness's spans with their self times. Spans nest only on the
   calling domain, so a stack sweep over start order finds each span's
   enclosing one. *)
let layer_spans recorder =
  let lp = String.length prefix in
  let spans =
    List.filter_map
      (fun (s : Obs.span) ->
        if Load.starts_with ~prefix s.Obs.name then
          Some
            {
              lname = String.sub s.Obs.name lp (String.length s.Obs.name - lp);
              start = s.Obs.start_ns;
              dur = s.Obs.dur_ns;
              self = s.Obs.dur_ns;
              jobs =
                (match List.assoc_opt "jobs" s.Obs.attrs with Some (Obs.Int j) -> j | _ -> 0);
            }
        else None)
      (Obs.spans recorder)
    |> List.sort (fun a b ->
           match Int64.compare a.start b.start with 0 -> Int64.compare b.dur a.dur | c -> c)
  in
  let stack = ref [] in
  List.iter
    (fun s ->
      let rec pop () =
        match !stack with
        | top :: rest when Int64.add top.start top.dur <= s.start ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with top :: _ -> top.self <- Int64.sub top.self s.dur | [] -> ());
      stack := s :: !stack)
    spans;
  spans

let selfs spans name =
  Array.of_list
    (List.filter_map
       (fun s -> if String.equal s.lname name then Some (Int64.to_float s.self) else None)
       spans)

(* ------------------------------------------------------------------ *)
(* Untraced timing loops: pool speedup and per-draw cost               *)
(* ------------------------------------------------------------------ *)

type extra = { speedup : float; exact_draw_us : float; alias_draw_ns : float }

(* Over the artifacts a pass left behind (all warm): the [run_jobs]
   wall with one worker Domain divided by the wall with two, and the
   cost of one exact-CDF draw (count = 1) and of one alias draw. *)
let extra_timings q artifacts =
  let ws = Array.map (fun (i : Plan.item) -> (i.Plan.conn, Reference.query i.Plan.line)) q.items in
  let pass domains =
    Engine.with_engine ~domains ~cache_capacity:(max 1 (List.length artifacts)) (fun e ->
        Engine.preload e artifacts;
        let seeders = Array.init 2 (fun _ -> Engine.Seeder.create ()) in
        snd @@ timed (fun () ->
            let n = Array.length ws in
            let i = ref 0 in
            while !i < n do
              let len = min q.batch (n - !i) in
              ignore
                (Engine.run_jobs e
                   (Array.init len (fun k ->
                        let c, w = ws.(!i + k) in
                        Reference.job seeders (c mod 2) w)));
              i := !i + len
            done))
  in
  let d1 = pass 1 in
  let d2 = pass 2 in
  let sampler (r : R.t) =
    let key = R.canonical_key r in
    (List.find (fun (c : C.t) -> String.equal c.C.key key) artifacts).C.sampler
  in
  let draws ~single =
    let reqs =
      List.filter_map
        (fun (_, (w : R.wire)) ->
          let r = w.R.request in
          if (r.R.count = 1) = single then Some (sampler r, r) else None)
        (Array.to_list ws)
    in
    let rng = Prob.Rng.of_int 7 in
    let total = List.fold_left (fun a (_, (r : R.t)) -> a + r.R.count) 0 reqs in
    let (), secs =
      timed (fun () ->
          List.iter
            (fun (s, (r : R.t)) -> ignore (C.draws s ~input:r.R.input ~count:r.R.count rng))
            reqs)
    in
    if total = 0 then Float.nan else secs /. float_of_int total
  in
  {
    speedup = d1 /. d2;
    exact_draw_us = draws ~single:true *. 1e6;
    alias_draw_ns = draws ~single:false *. 1e9;
  }
