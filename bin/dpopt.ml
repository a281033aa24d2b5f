(* dpopt — command-line front end for the minimax-DP library.

   Subcommands:
     geometric   print or sample the geometric mechanism
     optimal     solve the tailored optimal-mechanism LP (§2.5)
     serve       budgeted solve with certified degradation to G(n,α)
     engine      serve a request stream through the multicore engine
     client      send request lines to a running dpserved over TCP
     interact    solve a consumer's optimal interaction (§2.4.3)
     release     multi-level collusion-resistant release (Algorithm 1)
     verify      check a mechanism matrix for DP and derivability
     smoke       exercise every instrumented layer in one short run

   Every subcommand accepts --trace FILE (Chrome trace-event output,
   loadable in chrome://tracing / Perfetto) and --metrics (counters and
   histograms on stderr at exit).
*)

open Cmdliner

(* ----------------------------------------------------------------- *)
(* Argument converters                                               *)
(* ----------------------------------------------------------------- *)

let rat_conv =
  let parse s =
    match Rat.of_string_opt s with
    | Some r -> Ok r
    | None -> Error (`Msg (Printf.sprintf "not a rational: %S (use p/q or decimals)" s))
  in
  Arg.conv (parse, fun fmt r -> Format.pp_print_string fmt (Rat.to_string r))

let alpha_arg =
  let doc = "Privacy parameter α, a rational in (0,1); larger = more private." in
  Arg.(value & opt rat_conv (Rat.of_ints 1 2) & info [ "a"; "alpha" ] ~docv:"ALPHA" ~doc)

let n_arg =
  let doc = "Maximum query result; mechanisms act on {0..N}." in
  Arg.(value & opt int 5 & info [ "n"; "range" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed (runs are deterministic given the seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* --trace / --metrics: install an ambient Obs recorder for the whole
   command and dump it on exit. Shared by every subcommand. *)
let obs_term =
  let trace =
    let doc =
      "Record spans and counters and write a Chrome trace-event file on exit \
       (load it in chrome://tracing or Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc = "Print counters and histograms to stderr on exit." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let setup trace metrics =
    if trace <> None || metrics then begin
      let r = Obs.create () in
      Obs.set_current (Some r);
      at_exit (fun () ->
        Obs.set_current None;
        (match trace with
         | Some file -> Obs.write_chrome_trace r file
         | None -> ());
        if metrics then prerr_string (Obs.render_text r))
    end
  in
  Term.(const setup $ trace $ metrics)

let decimal_arg =
  let doc = "Print probabilities as decimals instead of exact fractions." in
  Arg.(value & flag & info [ "decimal" ] ~doc)

(* --deadline-ms / --max-pivots / --max-bits: a solve budget. All
   unset means no budget at all (the solver's zero-overhead path). *)
let budget_flags =
  let deadline =
    let doc = "Wall-clock budget for the solve, in milliseconds." in
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let pivots =
    let doc = "Simplex pivot budget for the solve." in
    Arg.(value & opt (some int) None & info [ "max-pivots" ] ~docv:"K" ~doc)
  in
  let bits =
    let doc = "Ceiling on pivot-coefficient bit sizes (exhausts instead of thrashing)." in
    Arg.(value & opt (some int) None & info [ "max-bits" ] ~docv:"B" ~doc)
  in
  let mk deadline_ms max_pivots max_bits = (deadline_ms, max_pivots, max_bits) in
  Term.(const mk $ deadline $ pivots $ bits)

let budget_term =
  let mk (deadline_ms, max_pivots, max_bits) =
    if deadline_ms = None && max_pivots = None && max_bits = None then None
    else Some (Lp.Budget.make ?deadline_ms ?max_pivots ?max_bits ())
  in
  Term.(const mk $ budget_flags)

(* The engine compiles each distinct consumer separately, so it takes
   the budget as a thunk: every compile gets a fresh deadline window
   instead of all of them racing one wall clock started at CLI parse. *)
let budget_thunk_term =
  let mk (deadline_ms, max_pivots, max_bits) =
    if deadline_ms = None && max_pivots = None && max_bits = None then None
    else Some (fun () -> Lp.Budget.make ?deadline_ms ?max_pivots ?max_bits ())
  in
  Term.(const mk $ budget_flags)

let loss_conv =
  let parse s =
    let module L = Minimax.Loss in
    match String.split_on_char ':' s with
    | [ "absolute" ] | [ "abs" ] -> Ok L.absolute
    | [ "squared" ] | [ "sq" ] -> Ok L.squared
    | [ "zero-one" ] | [ "01" ] -> Ok L.zero_one
    | [ "deadzone"; w ] -> (
      match int_of_string_opt w with
      | Some w when w >= 0 -> Ok (L.deadzone ~width:w)
      | _ -> Error (`Msg "deadzone:<width> needs a non-negative integer"))
    | [ "capped"; c ] -> (
      match int_of_string_opt c with
      | Some c when c >= 1 -> Ok (L.capped ~cap:c)
      | _ -> Error (`Msg "capped:<cap> needs a positive integer"))
    | [ "asym"; ou ] -> (
      match String.split_on_char ',' ou with
      | [ o; u ] -> (
        match (Rat.of_string_opt o, Rat.of_string_opt u) with
        | Some over, Some under -> Ok (L.asymmetric ~over ~under)
        | _ -> Error (`Msg "asym:<over>,<under> needs two rationals"))
      | _ -> Error (`Msg "asym:<over>,<under>"))
    | _ ->
      Error
        (`Msg
           "unknown loss (choose absolute | squared | zero-one | deadzone:<w> | capped:<c> | \
            asym:<over>,<under>)")
  in
  Arg.conv (parse, fun fmt l -> Format.pp_print_string fmt (Minimax.Loss.name l))

let loss_arg =
  let doc =
    "Loss function: absolute, squared, zero-one, deadzone:<w>, capped:<c>, or \
     asym:<over>,<under>."
  in
  Arg.(value & opt loss_conv Minimax.Loss.absolute & info [ "l"; "loss" ] ~docv:"LOSS" ~doc)

(* side information: "full", "lo-hi", ">=k", "<=k", or "1,3,5" *)
let side_info_of_string ~n s =
  let fail msg = Error (`Msg msg) in
  try
    if s = "full" then Ok (Minimax.Side_info.full n)
    else if String.length s > 2 && String.sub s 0 2 = ">=" then
      Ok (Minimax.Side_info.at_least ~n (int_of_string (String.sub s 2 (String.length s - 2))))
    else if String.length s > 2 && String.sub s 0 2 = "<=" then
      Ok (Minimax.Side_info.at_most ~n (int_of_string (String.sub s 2 (String.length s - 2))))
    else if String.contains s '-' then
      match String.split_on_char '-' s with
      | [ lo; hi ] -> Ok (Minimax.Side_info.interval ~n (int_of_string lo) (int_of_string hi))
      | _ -> fail "range must be lo-hi"
    else Ok (Minimax.Side_info.make ~n (List.map int_of_string (String.split_on_char ',' s)))
  with
  | Failure _ -> fail (Printf.sprintf "cannot parse side information %S" s)
  | Invalid_argument msg -> fail msg

let side_arg =
  let doc = "Side information: full, lo-hi, >=k, <=k, or a comma list of members." in
  Arg.(value & opt string "full" & info [ "s"; "side" ] ~docv:"SIDE" ~doc)

let print_mechanism ~decimal m =
  let table =
    if decimal then Report.Table.of_mechanism ~places:4 m else Report.Table.of_mechanism m
  in
  Report.Table.print table

let consumer_of ~n ~loss ~side =
  match side_info_of_string ~n side with
  | Error (`Msg m) -> Error m
  | Ok side_info -> Ok (Minimax.Consumer.make ~loss ~side_info ())

(* ----------------------------------------------------------------- *)
(* geometric                                                         *)
(* ----------------------------------------------------------------- *)

let geometric_cmd =
  let input =
    let doc = "If set, sample the mechanism at this true result instead of printing it." in
    Arg.(value & opt (some int) None & info [ "input" ] ~docv:"I" ~doc)
  in
  let samples =
    let doc = "Number of samples to draw (with --input)." in
    Arg.(value & opt int 1 & info [ "samples" ] ~docv:"K" ~doc)
  in
  let run () n alpha input samples seed decimal =
    let g = Mech.Geometric.matrix ~n ~alpha in
    match input with
    | None ->
      Printf.printf "G(%d, %s) — α-differentially private: %b\n" n (Rat.to_string alpha)
        (Mech.Mechanism.is_dp ~alpha g);
      print_mechanism ~decimal g;
      `Ok ()
    | Some i when i < 0 || i > n -> `Error (false, "input out of {0..n}")
    | Some i ->
      let rng = Prob.Rng.of_int seed in
      (* One exact table per row, built once for the batch: O(1) per
         draw, and the K draws are the first K that repeated
         [Mech.Mechanism.sample] calls would give. *)
      let sampler = Engine.Compiled.sampler_of_mechanism g in
      let out = Engine.Compiled.draws sampler ~input:i ~count:samples rng in
      print_endline (String.concat " " (List.map string_of_int (Array.to_list out)));
      `Ok ()
  in
  let term =
    Term.(
      ret (const run $ obs_term $ n_arg $ alpha_arg $ input $ samples $ seed_arg $ decimal_arg))
  in
  Cmd.v
    (Cmd.info "geometric" ~doc:"Print or sample the range-restricted geometric mechanism.")
    term

(* ----------------------------------------------------------------- *)
(* optimal                                                           *)
(* ----------------------------------------------------------------- *)

let optimal_cmd =
  let structured =
    let doc = "Use the Lemma-5 structured tie-break (slower; canonical form)." in
    Arg.(value & flag & info [ "structured" ] ~doc)
  in
  let lfp =
    let doc = "Also print the least-favorable prior (the minimax LP's duals)." in
    Arg.(value & flag & info [ "lfp" ] ~doc)
  in
  let run () n alpha loss side structured lfp decimal budget =
    match consumer_of ~n ~loss ~side with
    | Error m -> `Error (false, m)
    | Ok _ when structured && Option.is_some budget ->
      `Error (false, "--structured does not take a budget (drop the flag, or use `dpopt serve`)")
    | Ok consumer -> (
      let solved =
        if structured then Ok (Minimax.Optimal_mechanism.solve_structured ~alpha consumer)
        else Minimax.Optimal_mechanism.solve_budgeted ?budget ~alpha consumer
      in
      match solved with
      | Error e ->
        `Error
          ( false,
            Printf.sprintf "solve gave up: %s (try a larger budget, or `dpopt serve` which \
                            degrades to the geometric mechanism instead of failing)"
              (Lp.Solver_error.to_string e) )
      | Ok result ->
      Printf.printf "consumer      : %s\n" (Minimax.Consumer.label consumer);
      Printf.printf "minimax loss  : %s (= %s)\n"
        (Rat.to_string result.Minimax.Optimal_mechanism.loss)
        (Rat.to_decimal_string ~places:6 result.Minimax.Optimal_mechanism.loss);
      print_mechanism ~decimal result.Minimax.Optimal_mechanism.mechanism;
      if lfp then begin
        match Minimax.Optimal_mechanism.least_favorable_prior ~alpha consumer with
        | None -> print_endline "least-favorable prior: degenerate (zero loss)"
        | Some (prior, _) ->
          Printf.printf "least-favorable prior: [%s]\n"
            (String.concat "; " (Array.to_list (Array.map Rat.to_string prior)))
      end;
      `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ obs_term $ n_arg $ alpha_arg $ loss_arg $ side_arg $ structured $ lfp
       $ decimal_arg $ budget_term))
  in
  Cmd.v
    (Cmd.info "optimal"
       ~doc:"Solve the tailored optimal α-DP mechanism LP for a known consumer (§2.5).")
    term

(* ----------------------------------------------------------------- *)
(* serve                                                             *)
(* ----------------------------------------------------------------- *)

let serve_cmd =
  let json =
    let doc =
      "Also print the release as one JSON response object in the unified PROTOCOL.md \
       schema (the same shape dpserved and `dpopt engine --json` emit)."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let loss_spec_arg =
    let doc =
      "Loss function: absolute, squared, zero-one, deadzone:<w>, capped:<c>, or \
       asym:<over>,<under>."
    in
    Arg.(value & opt string "absolute" & info [ "l"; "loss" ] ~docv:"LOSS" ~doc)
  in
  let run () n alpha loss side decimal json budget =
    let specs =
      match
        (Engine.Request.loss_spec_of_string loss, Engine.Request.side_spec_of_string side)
      with
      | Ok l, Ok s -> Ok (l, s)
      | Error m, _ | _, Error m -> Error m
    in
    match specs with
    | Error m -> `Error (false, m)
    | Ok (loss, side) -> (
      match Engine.Request.make ~n ~alpha ~loss ~side () with
      | Error m -> `Error (false, m)
      | Ok request ->
        let module S = Minimax.Serve in
        let consumer = Engine.Request.consumer request in
        let s = S.serve ?budget ~alpha consumer in
        let p = s.S.provenance in
        Printf.printf "consumer   : %s\n" (Minimax.Consumer.label consumer);
        Printf.printf "rung       : %s%s\n"
          (S.rung_to_string p.S.rung)
          (match p.S.rung with
           | S.Tailored -> " (retired rung)"
           | S.Geometric_remap -> " (G(n,α) + optimal interaction, Theorem 1)"
           | S.Geometric_raw -> " (raw G(n,α), Theorem 2)");
        Printf.printf "loss       : %s (= %s)\n" (Rat.to_string s.S.loss)
          (Rat.to_decimal_string ~places:6 s.S.loss);
        Printf.printf "provenance : %s\n" (S.provenance_to_string p);
        if json then
          print_endline
            (Server.Response.to_line
               (Server.Response.of_served ~key:(Engine.Request.canonical_key request) s));
        print_mechanism ~decimal s.S.mechanism;
        `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ obs_term $ n_arg $ alpha_arg $ loss_spec_arg $ side_arg $ decimal_arg
       $ json $ budget_term))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a consumer on G(n,α) plus its optimal-interaction remap (the tailored \
          optimum, by Theorem 1) within a budget (--deadline-ms / --max-pivots / \
          --max-bits), degrading to raw G(n,α) rather than failing when the remap's LP \
          runs out; the released mechanism is re-certified and carries its provenance.")
    term

(* ----------------------------------------------------------------- *)
(* engine                                                            *)
(* ----------------------------------------------------------------- *)

(* Request lines for `engine` (local) and `client` (over TCP): same
   versioned grammar, same file conventions. *)
let request_file_arg =
  let doc =
    "Read requests from $(docv) instead of stdin. One request per line in the versioned \
     key=value grammar (PROTOCOL.md), e.g. 'v=1 id=q1 n=6 alpha=1/2 loss=absolute \
     side=full input=3 count=1000'; blank lines and lines starting with '#' are ignored."
  in
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let read_request_lines = function
  | Some f -> In_channel.with_open_text f In_channel.input_lines
  | None ->
    let rec go acc =
      match In_channel.input_line stdin with
      | Some l -> go (l :: acc)
      | None -> List.rev acc
    in
    go []

let engine_cmd =
  let file = request_file_arg in
  let workers =
    let doc =
      "Worker domains for the sampling pool (1 = inline single-domain fallback; default: \
       the runtime's recommendation). Output is byte-identical for every setting."
    in
    Arg.(value & opt (some int) None & info [ "w"; "workers" ] ~docv:"W" ~doc)
  in
  let cache =
    let doc = "Mechanism-cache capacity: compiled artifacts kept, LRU-evicted beyond it." in
    Arg.(value & opt int 64 & info [ "cache" ] ~docv:"CAP" ~doc)
  in
  let print_samples =
    let doc = "Print each request's samples (space-separated) under its summary line." in
    Arg.(value & flag & info [ "print-samples" ] ~doc)
  in
  let json =
    let doc =
      "Print one JSON response per request in the unified PROTOCOL.md schema (and a \
       summary object) instead of text."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let store_dir =
    let doc =
      "Persistent artifact store directory (created if absent): memory misses probe it \
       for a verified warm artifact before compiling, and fresh compiles are written \
       back as crash-safe checksummed frames. Served bytes are identical with or \
       without it."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let cache_state (r : Engine.response) =
    if r.Engine.cache_bypassed then "bypass"
    else if r.Engine.cache_hit then "hit"
    else if r.Engine.store_hit then "store"
    else "miss"
  in
  let run () file workers cache store_dir print_samples json seed budget =
    let lines = try Ok (read_request_lines file) with Sys_error m -> Error m in
    match lines with
    | Error m -> `Error (false, m)
    | Ok lines -> (
      let parse (lineno, acc) line =
        let s = String.trim line in
        if s = "" || s.[0] = '#' then (lineno + 1, acc)
        else
          let r =
            match Engine.Request.of_line s with
            | Ok (Engine.Request.Query w) -> Ok w
            | Ok (Engine.Request.Stats _) ->
              Error
                (Printf.sprintf
                   "line %d: op=stats is a server admin verb; ask a running dpserved \
                    (dpopt client --stats)"
                   lineno)
            | Ok (Engine.Request.Session _) ->
              Error
                (Printf.sprintf
                   "line %d: session verbs need a running dpserved (dpopt client \
                    --subscribe)"
                   lineno)
            | Error e ->
              Error
                (Printf.sprintf "line %d: %s" lineno
                   (Engine.Request.wire_error_to_string e))
          in
          (lineno + 1, r :: acc)
      in
      let _, parsed = List.fold_left parse (1, []) lines in
      let first_error = List.find_opt Result.is_error (List.rev parsed) in
      match first_error with
      | Some (Error m) -> `Error (false, m)
      | Some (Ok _) | None ->
        let wires = Array.of_list (List.rev (List.filter_map Result.to_option parsed)) in
        if Array.length wires = 0 then `Error (false, "no requests (input was empty)")
        else begin
          match
            match store_dir with
            | None -> Ok None
            | Some dir -> (
              match Store.open_dir dir with
              | Ok s -> Ok (Some s)
              | Error e -> Error (Store.error_to_string e))
          with
          | Error m -> `Error (false, "cannot open store: " ^ m)
          | Ok store ->
          (* One seeder for the whole file: line k with seed s draws
             the k-th split of Rng.of_int s — the same chain the server
             walks per connection, and (when every line shares the
             batch seed) the same streams run_batch would use. *)
          let seeder = Engine.Seeder.create () in
          let jobs =
            Array.mapi
              (fun i (w : Engine.Request.wire) ->
                let seed = Option.value w.Engine.Request.seed ~default:seed in
                (* Trace ids come from the wire id= when the line carries
                   one, else the line index — same rule as the server. *)
                let trace =
                  if Obs.enabled () then
                    Some
                      (Obs.Trace.make
                         (match w.Engine.Request.id with
                         | Some id -> id
                         | None -> Printf.sprintf "r%d" i))
                  else None
                in
                {
                  Engine.request = w.Engine.Request.request;
                  stream = Engine.Seeder.stream seeder ~seed;
                  budget = None;
                  trace;
                })
              wires
          in
          let results, elapsed_ns, stats, domains =
            Engine.with_engine ?domains:workers ~cache_capacity:cache ?budget
              ?tier:(Option.map Store.tier store) (fun e ->
              let t0 = Obs.Clock.monotonic () in
              let results = Engine.run_jobs e jobs in
              let t1 = Obs.Clock.monotonic () in
              (* [Engine.domains] is 0 for the inline pool; as far as the
                 user is concerned one domain did the sampling. *)
              (results, Int64.sub t1 t0, Engine.cache_stats e, max 1 (Engine.domains e)))
          in
          let module S = Minimax.Serve in
          let total_samples =
            Array.fold_left
              (fun a -> function
                | Ok (r : Engine.response) -> a + Array.length r.Engine.samples
                | Error _ -> a)
              0 results
          in
          let error_count =
            Array.fold_left (fun a -> function Ok _ -> a | Error _ -> a + 1) 0 results
          in
          let seconds = Int64.to_float elapsed_ns /. 1e9 in
          let per_s = if seconds > 0. then float_of_int total_samples /. seconds else 0. in
          Array.iteri
            (fun i result ->
              let id = wires.(i).Engine.Request.id in
              match result with
              | Error e ->
                if json then
                  print_endline
                    (Server.Response.to_line (Server.Response.of_job_error ?id e))
                else Printf.printf "[%3d] ERROR %s\n" i (Engine.job_error_to_string e)
              | Ok (r : Engine.response) ->
                if json then
                  print_endline (Server.Response.to_line (Server.Response.of_engine ?id r))
                else begin
                  Printf.printf "[%3d] %s  rung=%s loss=%s cache=%s samples=%d\n" i
                    r.Engine.key
                    (S.rung_to_string r.Engine.rung)
                    (Rat.to_string r.Engine.loss) (cache_state r)
                    (Array.length r.Engine.samples);
                  if print_samples then
                    print_endline
                      (String.concat " "
                         (List.map string_of_int (Array.to_list r.Engine.samples)))
                end)
            results;
          let summary =
            Printf.sprintf
              "%d request(s), %d sample(s)%s in %.3fs (%.0f samples/s) on %d worker \
               domain(s); cache: %d hit(s) %d miss(es) %d eviction(s)%s"
              (Array.length results) total_samples
              (if error_count > 0 then Printf.sprintf ", %d error(s)" error_count else "")
              seconds per_s domains stats.Engine.Cache.hits stats.Engine.Cache.misses
              stats.Engine.Cache.evictions
              (match store with
              | None -> ""
              | Some s ->
                let st = Store.stats s in
                Printf.sprintf "; store: %d hit(s) %d miss(es) %d corrupt %d write(s)"
                  st.Store.hits st.Store.misses st.Store.corrupt st.Store.writes)
          in
          if json then
            let open Obs.Json in
            print_endline
              (to_string
                 (Obj
                    [
                      ("requests", Int (Array.length results));
                      ("samples", Int total_samples);
                      ("errors", Int error_count);
                      ("elapsed_ns", Int (Int64.to_int elapsed_ns));
                      ("samples_per_s", Int (int_of_float per_s));
                      ("workers", Int domains);
                      ( "cache",
                        Obj
                          [
                            ("hits", Int stats.Engine.Cache.hits);
                            ("misses", Int stats.Engine.Cache.misses);
                            ("evictions", Int stats.Engine.Cache.evictions);
                            ("insertions", Int stats.Engine.Cache.insertions);
                          ] );
                      ( "store",
                        match store with
                        | None -> Null
                        | Some s ->
                          let st = Store.stats s in
                          Obj
                            [
                              ("hits", Int st.Store.hits);
                              ("misses", Int st.Store.misses);
                              ("corrupt", Int st.Store.corrupt);
                              ("writes", Int st.Store.writes);
                            ] );
                    ]))
          else print_endline summary;
          `Ok ()
        end)
  in
  let term =
    Term.(
      ret
        (const run $ obs_term $ file $ workers $ cache $ store_dir $ print_samples $ json
       $ seed_arg $ budget_thunk_term))
  in
  Cmd.v
    (Cmd.info "engine"
       ~doc:
         "Serve a stream of requests through the multicore engine: requests naming the same \
          consumer share one cached, re-certified, table-compiled mechanism; sampling fans \
          out over a Domain pool and merges deterministically (byte-identical output for \
          any --workers, given --seed).")
    term

(* ----------------------------------------------------------------- *)
(* client                                                            *)
(* ----------------------------------------------------------------- *)

let client_cmd =
  let host_arg =
    let doc = "Server host (name or dotted quad)." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let port_arg =
    let doc = "Server port (the one dpserved printed at startup)." in
    Arg.(required & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let resolve host =
    match Unix.inet_addr_of_string host with
    | a -> Ok a
    | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
        Error (Printf.sprintf "cannot resolve host %S" host)
      | h -> Ok h.Unix.h_addr_list.(0))
  in
  let stats_arg =
    let doc =
      "Send the single admin line 'v=1 op=stats' instead of a request file and print the \
       server's telemetry snapshot (rolling latency quantiles, queue depth, cache and \
       rejection counters) as JSON."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let prom_arg =
    let doc =
      "With $(b,--stats), print the Prometheus text exposition carried in the same \
       response instead of the JSON snapshot."
    in
    Arg.(value & flag & info [ "prom" ] ~doc)
  in
  let subscribe_arg =
    let doc =
      "Stay connected after sending the request lines (meant for op=subscribe lines): \
       pushed status:\"release\" rungs and typed budget_exhausted refusals are printed \
       as they arrive, until the server drains or the process is interrupted. Without \
       this flag the client half-closes after sending and exits at the last direct \
       response."
    in
    Arg.(value & flag & info [ "subscribe" ] ~doc)
  in
  (* Unwrap a stats response line down to what the caller asked for:
     the snapshot object, or the raw Prometheus text riding next to
     it. Anything else (an error response, junk) is surfaced as-is. *)
  let print_stats_line ~prom line =
    let module J = Obs.Json in
    let fallthrough () = print_endline line in
    match J.of_string line with
    | Error _ -> fallthrough ()
    | Ok json -> (
      if prom then
        match Option.bind (J.member "prometheus" json) J.to_str_opt with
        | Some text -> print_string text
        | None -> fallthrough ()
      else
        match J.member "stats" json with
        | Some stats -> print_endline (J.to_string stats)
        | None -> fallthrough ())
  in
  let run () host port file stats prom subscribe =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let lines =
      if stats then Ok [ "v=1 op=stats" ]
      else try Ok (read_request_lines file) with Sys_error m -> Error m
    in
    match (lines, resolve host) with
    | Error m, _ | _, Error m -> `Error (false, m)
    | Ok lines, Ok addr -> (
      let module F = Server.Framing in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        `Error
          (false, Printf.sprintf "cannot connect to %s:%d: %s" host port (Unix.error_message e))
      | () -> (
        let w = F.writer fd in
        List.iter
          (fun l ->
            let s = String.trim l in
            if s <> "" && s.[0] <> '#' then F.enqueue w s)
          lines;
        match F.flush_blocking w with
        | F.Closed ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          `Error (false, "server closed the connection before reading every request")
        | F.Blocked (* unreachable: flush_blocking waits out Blocked *) | F.Flushed ->
          (* Half-close: requests done, now stream responses to EOF —
             unless we are a live subscriber, in which case the send
             side stays open so the server keeps the session (and its
             pushes) alive until we are killed or it drains. *)
          if not subscribe then
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
          let r = F.reader fd in
          let emit = if stats then print_stats_line ~prom else print_endline in
          let rec pump () =
            let { F.lines; eof; overflow = _ } = F.poll r in
            List.iter emit lines;
            if not eof then pump ()
          in
          pump ();
          (try Unix.close fd with Unix.Unix_error _ -> ());
          `Ok ()))
  in
  let term =
    Term.(
      ret
        (const run $ obs_term $ host_arg $ port_arg $ request_file_arg $ stats_arg
       $ prom_arg $ subscribe_arg))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send request lines (v=1 key=value grammar, PROTOCOL.md) to a running dpserved \
          and print its JSON responses, one per line, in admission order. With --stats, \
          fetch the live telemetry snapshot instead (op=stats admin verb). With \
          --subscribe, stay connected and print pushed session release lines.")
    term

(* ----------------------------------------------------------------- *)
(* interact                                                          *)
(* ----------------------------------------------------------------- *)

let interact_cmd =
  let run () n alpha loss side decimal =
    match consumer_of ~n ~loss ~side with
    | Error m -> `Error (false, m)
    | Ok consumer ->
      let deployed = Mech.Geometric.matrix ~n ~alpha in
      let r = Minimax.Optimal_interaction.solve ~deployed consumer in
      let tailored = Minimax.Optimal_mechanism.solve ~alpha consumer in
      Printf.printf "consumer            : %s\n" (Minimax.Consumer.label consumer);
      Printf.printf "loss via interaction: %s\n" (Rat.to_string r.Minimax.Optimal_interaction.loss);
      Printf.printf "tailored LP optimum : %s\n"
        (Rat.to_string tailored.Minimax.Optimal_mechanism.loss);
      Printf.printf "universality holds  : %b\n"
        (Rat.equal r.Minimax.Optimal_interaction.loss tailored.Minimax.Optimal_mechanism.loss);
      print_endline "optimal interaction T (rows = received output):";
      Report.Table.print
        (if decimal then Report.Table.of_rat_matrix_decimal ~places:4 r.Minimax.Optimal_interaction.interaction
         else Report.Table.of_rat_matrix r.Minimax.Optimal_interaction.interaction);
      `Ok ()
  in
  let term =
    Term.(ret (const run $ obs_term $ n_arg $ alpha_arg $ loss_arg $ side_arg $ decimal_arg))
  in
  Cmd.v
    (Cmd.info "interact"
       ~doc:
         "Compute a consumer's optimal interaction with the deployed geometric mechanism \
          (§2.4.3) and check Theorem 1.")
    term

(* ----------------------------------------------------------------- *)
(* release                                                           *)
(* ----------------------------------------------------------------- *)

let release_cmd =
  let levels =
    let doc = "Comma-separated increasing privacy levels, e.g. 1/4,1/2,3/4." in
    Arg.(value & opt string "1/4,1/2,3/4" & info [ "levels" ] ~docv:"LEVELS" ~doc)
  in
  let true_result =
    let doc = "The true query result to protect." in
    Arg.(required & opt (some int) None & info [ "true-result" ] ~docv:"R" ~doc)
  in
  let run () n levels true_result seed =
    let parsed =
      List.filter_map Rat.of_string_opt (String.split_on_char ',' levels)
    in
    if List.length parsed <> List.length (String.split_on_char ',' levels) then
      `Error (false, "could not parse all privacy levels")
    else if true_result < 0 || true_result > n then `Error (false, "true result out of {0..n}")
    else
      match Minimax.Multi_level.make_plan ~n ~levels:parsed with
      | exception Invalid_argument m -> `Error (false, m)
      | plan ->
        let rng = Prob.Rng.of_int seed in
        let out = Minimax.Multi_level.release plan ~true_result rng in
        List.iteri
          (fun i alpha -> Printf.printf "level %d (α=%s): %d\n" (i + 1) (Rat.to_string alpha) out.(i))
          parsed;
        `Ok ()
  in
  let term = Term.(ret (const run $ obs_term $ n_arg $ levels $ true_result $ seed_arg)) in
  Cmd.v
    (Cmd.info "release"
       ~doc:"Release a result at multiple privacy levels, collusion-resistantly (Algorithm 1).")
    term

(* ----------------------------------------------------------------- *)
(* verify                                                            *)
(* ----------------------------------------------------------------- *)

let verify_cmd =
  let file =
    let doc = "File with one mechanism row per line, entries as rationals (default: stdin)." in
    Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)
  in
  let run () alpha file =
    let read_lines ic =
      let rec go acc = match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go []
    in
    let lines =
      match file with
      | Some f ->
        let ic = open_in f in
        let l = read_lines ic in
        close_in ic;
        l
      | None -> read_lines stdin
    in
    let lines = List.filter (fun l -> String.trim l <> "") lines in
    let parse_row line =
      line
      |> String.split_on_char ' '
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match Rat.of_string_opt s with
             | Some r -> r
             | None -> failwith (Printf.sprintf "bad entry %S" s))
    in
    match List.map parse_row lines with
    | exception Failure m -> `Error (false, m)
    | rows -> (
      match Mech.Mechanism.of_rows rows with
      | exception Mech.Mechanism.Not_stochastic m -> `Error (false, "not a mechanism: " ^ m)
      | m ->
        let level = Mech.Mechanism.privacy_level m in
        Printf.printf "rows            : %d\n" (Mech.Mechanism.size m);
        Printf.printf "privacy level   : %s (strongest α for which the matrix is α-DP)\n"
          (Rat.to_string level);
        Printf.printf "is %s-DP        : %b\n" (Rat.to_string alpha)
          (Mech.Mechanism.is_dp ~alpha m);
        (match Mech.Derivability.derive ~alpha m with
         | Mech.Derivability.Derivable _ ->
           Printf.printf "derivable from G(%d,%s): true\n" (Mech.Mechanism.n m) (Rat.to_string alpha)
         | Mech.Derivability.Not_derivable vs ->
           Printf.printf "derivable from G(%d,%s): false (%d Theorem-2 violations)\n"
             (Mech.Mechanism.n m) (Rat.to_string alpha) (List.length vs));
        `Ok ())
  in
  let term = Term.(ret (const run $ obs_term $ alpha_arg $ file)) in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check a mechanism matrix: stochasticity, differential privacy, and Theorem-2 \
          derivability from the geometric mechanism.")
    term

(* ----------------------------------------------------------------- *)
(* query                                                             *)
(* ----------------------------------------------------------------- *)

let query_cmd =
  let csv =
    let doc = "CSV database (header: name:type,... with types int|text|bool)." in
    Arg.(required & opt (some file) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let where =
    let doc = "Predicate, e.g. \"age >= 18 AND city = 'San Diego'\"." in
    Arg.(value & opt string "true" & info [ "where" ] ~docv:"PRED" ~doc)
  in
  let levels =
    let doc =
      "Release at these increasing privacy levels (comma-separated), \
       collusion-resistantly. Default: a single release at --alpha."
    in
    Arg.(value & opt (some string) None & info [ "levels" ] ~docv:"LEVELS" ~doc)
  in
  let show_true =
    let doc = "Also print the true (unperturbed) count — for demos only." in
    Arg.(value & flag & info [ "show-true" ] ~doc)
  in
  let run () csv where alpha levels seed show_true =
    match Dpdb.Query_parser.parse where with
    | Error e ->
      `Error
        ( false,
          Printf.sprintf "cannot parse predicate %S: %s" where
            (Dpdb.Query_parser.error_to_string e) )
    | Ok pred -> (
      let db = try Ok (Dpdb.Csv.load csv) with Invalid_argument m -> Error m in
      match db with
      | Error m -> `Error (false, m)
      | Ok db -> (
        match Dpdb.Query_parser.type_check (Dpdb.Database.schema db) pred with
        | Some m -> `Error (false, "predicate does not fit the data: " ^ m)
        | None ->
          let n = Dpdb.Database.size db in
          let true_count = Dpdb.Database.count db pred in
          let rng = Prob.Rng.of_int seed in
          Printf.printf "database        : %s (%d rows)\n" csv n;
          Printf.printf "query           : COUNT WHERE %s\n" (Dpdb.Predicate.to_string pred);
          if show_true then Printf.printf "true count      : %d\n" true_count;
          let release_at lvls =
            match Minimax.Multi_level.make_plan ~n ~levels:lvls with
            | exception Invalid_argument m -> `Error (false, m)
            | plan ->
              let out = Minimax.Multi_level.release plan ~true_result:true_count rng in
              List.iteri
                (fun i a ->
                  Printf.printf "released (α=%s) : %d\n" (Rat.to_string a) out.(i))
                lvls;
              `Ok ()
          in
          (match levels with
           | None -> release_at [ alpha ]
           | Some spec ->
             let parsed = List.filter_map Rat.of_string_opt (String.split_on_char ',' spec) in
             if List.length parsed <> List.length (String.split_on_char ',' spec) then
               `Error (false, "could not parse all privacy levels")
             else release_at parsed)))
  in
  let term =
    Term.(ret (const run $ obs_term $ csv $ where $ alpha_arg $ levels $ seed_arg $ show_true))
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Run a count query over a CSV database and release the result under differential \
          privacy (optionally at several collusion-resistant levels).")
    term

(* ----------------------------------------------------------------- *)
(* infer                                                             *)
(* ----------------------------------------------------------------- *)

let infer_cmd =
  let observed =
    let doc = "The released (observed) value." in
    Arg.(required & opt (some int) None & info [ "observed" ] ~docv:"R" ~doc)
  in
  let level =
    let doc = "Credible-set level, a rational in [0,1]." in
    Arg.(value & opt rat_conv (Rat.of_ints 9 10) & info [ "level" ] ~docv:"L" ~doc)
  in
  let run () n alpha observed level =
    if observed < 0 || observed > n then `Error (false, "observed value out of {0..n}")
    else begin
      let deployed = Mech.Geometric.matrix ~n ~alpha in
      match Minimax.Inference.posterior ~deployed ~observed () with
      | None -> `Error (false, "observation has zero probability")
      | Some p ->
        Printf.printf "deployed: G(%d, %s); observed: %d\n" n (Rat.to_string alpha) observed;
        print_endline "posterior over the true count (uniform prior):";
        Array.iteri
          (fun i m -> Printf.printf "  %2d : %s\n" i (Rat.to_decimal_string ~places:6 m))
          p;
        (match Minimax.Inference.map_estimate ~deployed ~observed () with
         | Some m -> Printf.printf "MAP estimate   : %d\n" m
         | None -> ());
        (match Minimax.Inference.posterior_mean ~deployed ~observed () with
         | Some m -> Printf.printf "posterior mean : %s\n" (Rat.to_decimal_string ~places:4 m)
         | None -> ());
        (match Minimax.Inference.credible_set ~deployed ~observed ~level () with
         | Some (members, mass) ->
           Printf.printf "%s-credible set: {%s} (mass %s)\n" (Rat.to_string level)
             (String.concat "," (List.map string_of_int members))
             (Rat.to_decimal_string ~places:4 mass)
         | None -> ());
        Printf.printf "adjacent posterior odds within [α, 1/α]: %b\n"
          (Minimax.Inference.posterior_odds_bounded ~alpha ~deployed ~observed ());
        `Ok ()
    end
  in
  let term = Term.(ret (const run $ obs_term $ n_arg $ alpha_arg $ observed $ level)) in
  Cmd.v
    (Cmd.info "infer"
       ~doc:
         "What a reader can exactly infer from a released value: posterior, MAP, mean, \
          credible set — and the DP bound on posterior odds.")
    term

(* ----------------------------------------------------------------- *)
(* smoke                                                             *)
(* ----------------------------------------------------------------- *)

(* One short run that exercises every instrumented layer — the LP
   simplex (tailored optimal mechanism), the Theorem-2 factorization,
   and the multi-level cascade — so
   `dpopt smoke --trace t.json` yields a representative trace. *)
let smoke_cmd =
  let run () n alpha seed =
    let consumer =
      Minimax.Consumer.make ~loss:Minimax.Loss.absolute ~side_info:(Minimax.Side_info.full n) ()
    in
    let result = Minimax.Optimal_mechanism.solve ~alpha consumer in
    Printf.printf "optimal mechanism : minimax loss %s for %s\n"
      (Rat.to_string result.Minimax.Optimal_mechanism.loss)
      (Minimax.Consumer.label consumer);
    let g = Mech.Geometric.matrix ~n ~alpha in
    (match Mech.Derivability.derive ~alpha g with
     | Mech.Derivability.Derivable _ ->
       Printf.printf "derivability      : G(%d,%s) factors through itself\n" n (Rat.to_string alpha)
     | Mech.Derivability.Not_derivable vs ->
       Printf.printf "derivability      : UNEXPECTED %d violations\n" (List.length vs));
    let beta = Rat.div (Rat.add alpha Rat.one) (Rat.of_int 2) in
    match Minimax.Multi_level.make_plan ~n ~levels:[ alpha; beta ] with
    | exception Invalid_argument m -> `Error (false, m)
    | plan ->
      let rng = Prob.Rng.of_int seed in
      let out = Minimax.Multi_level.release plan ~true_result:(n / 2) rng in
      Printf.printf "cascade release   : α=%s → %d, α=%s → %d\n" (Rat.to_string alpha) out.(0)
        (Rat.to_string beta) out.(1);
      `Ok ()
  in
  let term = Term.(ret (const run $ obs_term $ n_arg $ alpha_arg $ seed_arg)) in
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "Exercise every instrumented layer (simplex, factorization, cascade) in one \
          short run — combine with --trace or --metrics to inspect the observability \
          output.")
    term

(* ----------------------------------------------------------------- *)
(* main                                                              *)
(* ----------------------------------------------------------------- *)

let main =
  let doc = "universally optimal privacy mechanisms for minimax agents (PODS 2010)" in
  Cmd.group
    (Cmd.info "dpopt" ~version:"1.0.0" ~doc)
    [
      geometric_cmd;
      optimal_cmd;
      serve_cmd;
      engine_cmd;
      client_cmd;
      interact_cmd;
      release_cmd;
      verify_cmd;
      query_cmd;
      infer_cmd;
      smoke_cmd;
    ]

let () = exit (Cmd.eval main)
