(* The correctness gate: every served line must be byte-identical to an
   in-process reference built from the same commit — the engine with
   one [Seeder] per connection (exactly what the server allocates), or
   a session table driven by the same verbs and seed. The reference is
   recomputed on every run, never read from pinned goldens, so a
   commit that legitimately changes served bytes still passes. *)

module R = Engine.Request
module Resp = Server.Response

let parse line =
  match R.of_line line with
  | Ok p -> p
  | Error e -> invalid_arg ("Reference.parse: " ^ R.wire_error_to_string e)

let query line =
  match parse line with
  | R.Query w -> w
  | R.Stats _ | R.Session _ -> invalid_arg ("Reference.query: not a query: " ^ line)

let render_engine ?id = function
  | Ok r -> Resp.to_line (Resp.of_engine ?id r)
  | Error e -> Resp.to_line (Resp.of_job_error ?id e)

let job seeders conn (w : R.wire) =
  {
    Engine.request = w.R.request;
    stream =
      Engine.Seeder.stream seeders.(conn)
        ~seed:(Option.value w.R.seed ~default:Server.default_config.Server.default_seed);
    budget = None;
    trace = None;
  }

(* Requests the server admitted, in send order: op=stats lines are not
   queries, and a request refused before admission drew no stream. *)
let admitted (slots : Load.slot array) =
  List.filter
    (fun (s : Load.slot) -> (not (String.equal s.Load.phase "admin")) && not s.Load.overloaded)
    (Array.to_list slots)

let conns slots = 1 + Array.fold_left (fun m (s : Load.slot) -> max m s.Load.item.Plan.conn) 0 slots

(* Expected response digest of every admitted query, by id. *)
let engine_digests ?tier ~cache slots =
  let expected = Hashtbl.create 4096 in
  Engine.with_engine ~domains:1 ~cache_capacity:cache ?tier (fun e ->
      let seeders = Array.init (conns slots) (fun _ -> Engine.Seeder.create ()) in
      let rec go = function
        | [] -> ()
        | l ->
          let chunk = Plan.take 256 l and rest = List.filteri (fun i _ -> i >= 256) l in
          let ws = List.map (fun (s : Load.slot) -> (s, query s.Load.item.Plan.line)) chunk in
          let results =
            Engine.run_jobs e
              (Array.of_list (List.map (fun (s, w) -> job seeders s.Load.item.Plan.conn w) ws))
          in
          List.iteri
            (fun i ((s : Load.slot), (w : R.wire)) ->
              Hashtbl.replace expected s.Load.item.Plan.id
                (Load.chain "" (render_engine ?id:w.R.id results.(i))))
            ws;
          go rest
      in
      go (admitted slots));
  expected

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type session_outcome =
  | View of Resp.session_status * (Session.view, string) result
  | Release of (Session.release, Session.refusal) result

let session_call table = function
  | R.Subscribe { sub; n; input; level; budget } ->
    View (Resp.Subscribed, Session.subscribe table ~sub ~n ~input ~level ?budget ())
  | R.Unsubscribe { sub; n; input } -> View (Resp.Unsubscribed, Session.unsubscribe table ~sub ~n ~input)
  | R.Ledger { sub; n; input } -> View (Resp.Ledger_report, Session.ledger table ~sub ~n ~input)
  | R.Release { n; input } -> Release (Session.release table ~n ~input)

(* The lines one connection holding every subscription receives for a
   verb, rendered the way the server's event loop renders them: the
   caller's answer first, then per-subscriber pushes (served rungs) and
   typed budget_exhausted lines, in subscriber-name order, each stamped
   with its subscribe-time id. [subs] maps (subscriber, group) to that
   id. *)
let session_lines subs ~id outcome =
  let invalid msg = [ Resp.to_line (Resp.error ?id (Resp.Invalid { msg })) ] in
  match outcome with
  | View (_, Error msg) | Release (Error (Session.Rejected msg)) -> invalid msg
  | Release (Error (Session.Faulted msg)) -> [ Resp.to_line (Resp.error ?id (Resp.Internal { msg })) ]
  | View (status, Ok view) ->
    let key = (view.Session.v_sub, view.Session.v_group) in
    (match status with
     | Resp.Subscribed -> Hashtbl.replace subs key id
     | Resp.Unsubscribed -> Hashtbl.remove subs key
     | Resp.Ledger_report -> ());
    let resp =
      match status with
      | Resp.Subscribed -> Resp.subscribed ?id view
      | Resp.Unsubscribed -> Resp.unsubscribed ?id view
      | Resp.Ledger_report -> Resp.ledger ?id view
    in
    [ Resp.to_line resp ]
  | Release (Ok release) ->
    let group = release.Session.r_group in
    let pushes = Resp.release_pushes release in
    let push_for sub =
      List.find_opt (function Resp.Release_push { sub = s; _ } -> String.equal s sub | _ -> false) pushes
    in
    Resp.to_line (Resp.released ?id release)
    :: List.filter_map
         (fun (sub, outcome) ->
           match Hashtbl.find_opt subs (sub, group) with
           | None -> None
           | Some sid -> (
             match outcome with
             | Session.Served _ ->
               Option.map (fun p -> Resp.to_line (Resp.with_id sid p)) (push_for sub)
             | Session.Refused { spent; floor; _ } ->
               Some
                 (Resp.to_line
                    (Resp.error ?id:sid (Resp.Budget_exhausted { sub; group; spent; floor })))))
         release.Session.r_outcomes

let session_verb line =
  match parse line with
  | R.Session { id; verb } -> (id, verb)
  | R.Query _ | R.Stats _ -> invalid_arg ("Reference.session_verb: " ^ line)

let session_seed = Server.default_config.Server.default_seed

let session_digests slots =
  let expected = Hashtbl.create 4096 in
  let table =
    match Session.create ~seed:session_seed () with
    | Ok t -> t
    | Error msg -> invalid_arg ("Reference.session_digests: " ^ msg)
  in
  let subs = Hashtbl.create 16 in
  List.iter
    (fun (s : Load.slot) ->
      let id, verb = session_verb s.Load.item.Plan.line in
      let lines = session_lines subs ~id (session_call table verb) in
      Hashtbl.replace expected s.Load.item.Plan.id (List.fold_left Load.chain "" lines))
    (admitted slots);
  expected

(* ------------------------------------------------------------------ *)
(* The verdict                                                         *)
(* ------------------------------------------------------------------ *)

(* A request fails when it is unanswered, refused, or its bytes differ
   from the reference; a response line that answers no request fails
   the run too. Returns the requests attempted, the ids that failed, and
   the first few failures with why. *)
let verdict ~stray slots expected =
  let attempted = ref 0 and failed = Hashtbl.create 16 and first = ref [] in
  let fail id why =
    Hashtbl.replace failed id ();
    if List.length !first < 5 then first := Printf.sprintf "%s: %s" id why :: !first
  in
  Array.iter
    (fun (s : Load.slot) ->
      if not (String.equal s.Load.phase "admin") then begin
        incr attempted;
        let id = s.Load.item.Plan.id in
        if not (Load.complete s) then fail id "unanswered"
        else if s.Load.error then fail id "refused"
        else
          match Hashtbl.find_opt expected id with
          | Some d when String.equal d s.Load.digest -> ()
          | Some _ -> fail id "bytes differ from the in-process reference"
          | None -> fail id "no reference"
      end)
    slots;
  if stray > 0 then fail "-" (Printf.sprintf "%d response lines answered no request" stray);
  (!attempted, failed, List.rev !first)
