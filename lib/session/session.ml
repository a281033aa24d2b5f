(* The stateful multi-level release service; see session.mli. *)

module Certificate = Certificate
module ML = Minimax.Multi_level
module F = Resilience.Fault
module J = Obs.Json

(* analysis: domain-local — the session table and everything hanging
   off it belong to the server's single event-loop domain, exactly
   like the connection records; the runner domain never sees them. *)
type subscriber = {
  sub : string;
  mutable level : Rat.t;
  mutable floor : Rat.t option;
  mutable spent : Rat.t;  (* product of released α's; starts at 1 *)
  mutable served : int;
  mutable refusals : int;
  mutable active : bool;
}

(* analysis: domain-local — group state is mutated only by the
   event-loop domain that owns the session table. *)
type group = {
  gkey : string;
  n : int;
  input : int;
  mutable subs : subscriber list;  (* sorted by name *)
  mutable epoch : int;  (* epochs minted so far *)
  chain : Prob.Rng.t;  (* split parent; [Rng.split] advances it once per epoch *)
  mutable plan : (Rat.t list * ML.plan * string list) option;
      (* cached (levels, plan, plan-level certificate checks) *)
}

(* analysis: domain-local — the table is owned by one event-loop
   domain; see the module documentation. *)
type t = {
  sd : int;
  ckpt : string option;
  mutable groups : (string * group) list;  (* sorted by group key *)
}

type view = {
  v_sub : string;
  v_group : string;
  v_level : Rat.t;
  v_levels : Rat.t list;
  v_epoch : int;
  v_spent : Rat.t;
  v_floor : Rat.t option;
  v_served : int;
  v_refusals : int;
  v_active : bool;
}

type outcome =
  | Served of { level : Rat.t; value : int; spent : Rat.t; floor : Rat.t option }
  | Refused of { level : Rat.t; spent : Rat.t; floor : Rat.t }

type release = {
  r_group : string;
  r_epoch : int;
  r_levels : Rat.t array;
  r_values : int array;
  r_certificate : Certificate.t;
  r_outcomes : (string * outcome) list;
}

type refusal = Rejected of string | Faulted of string

let group_key ~n ~input = Printf.sprintf "n=%d;i=%d" n input

(* The chain parent for a group is seeded from a digest of (seed, group
   key): deterministic, restart-stable, and distinct per group even
   under one server seed. Epoch e draws from the e-th sequential split
   — the same (seed, index) discipline as [Engine.Seeder]. *)
let chain_parent ~seed group =
  let d = Digest.string (Printf.sprintf "dpsession|%d|%s" seed group) in
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  Prob.Rng.of_int (!v land max_int)

let epoch_stream ~seed ~group ~epoch =
  let parent = chain_parent ~seed group in
  let rng = ref (Prob.Rng.split parent) in
  for _ = 1 to epoch do
    rng := Prob.Rng.split parent
  done;
  !rng

let seed t = t.sd
let groups t = List.map fst t.groups

let live t =
  ( List.length t.groups,
    List.fold_left
      (fun acc (_, g) ->
        acc + List.length (List.filter (fun s -> s.active) g.subs))
      0 t.groups )

let active_levels g =
  List.sort_uniq Rat.compare (List.filter_map (fun s -> if s.active then Some s.level else None) g.subs)

let view_of g s =
  {
    v_sub = s.sub;
    v_group = g.gkey;
    v_level = s.level;
    v_levels = active_levels g;
    v_epoch = g.epoch;
    v_spent = s.spent;
    v_floor = s.floor;
    v_served = s.served;
    v_refusals = s.refusals;
    v_active = s.active;
  }

(* ------------------------------------------------------------------ *)
(* Durable ledger frames                                               *)
(* ------------------------------------------------------------------ *)

let format_tag = "dpsession"

(* The checkpoint payload's frame version. It moves only when this
   payload does, never with the artifact store's. *)
let checkpoint_version = 1

let payload t =
  let subscriber_json s =
    J.Obj
      [
        ("sub", J.Str s.sub);
        ("level", J.rat s.level);
        ("floor", match s.floor with None -> J.Null | Some f -> J.rat f);
        ("spent", J.rat s.spent);
        ("served", J.Int s.served);
        ("refusals", J.Int s.refusals);
      ]
  in
  let group_json (_, g) =
    J.Obj
      [
        ("group", J.Str g.gkey);
        ("n", J.Int g.n);
        ("input", J.Int g.input);
        ("epoch", J.Int g.epoch);
        ("subscribers", J.List (List.map subscriber_json g.subs));
      ]
  in
  J.to_string
    (J.Obj
       [
         ("format", J.Str format_tag);
         ("seed", J.Int t.sd);
         ("groups", J.List (List.map group_json t.groups));
       ])

(* Checkpoint after every ledger mutation. Failure (injected or real)
   degrades durability, never serving: it is counted and the in-memory
   ledger stays authoritative until the next mutation retries. *)
let checkpoint_now t =
  match t.ckpt with
  | None -> ()
  | Some path -> (
    match F.trip "session.ledger" with
    | exception F.Injected { site = "session.ledger"; _ } ->
      Obs.incr "session.checkpoint.failed"
    | () -> (
      match Store.Frame.write ~version:checkpoint_version ~path ~payload:(payload t) with
      | Ok () -> Obs.incr "session.checkpoints"
      | Error _ -> Obs.incr "session.checkpoint.failed"))

(* --- verify-on-load ------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name json =
  match J.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint missing %s" name)

let int_field name json =
  let* v = field name json in
  match J.to_int_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "checkpoint field %s is not an integer" name)

let str_field name json =
  let* v = field name json in
  match J.to_str_opt v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "checkpoint field %s is not a string" name)

let rat_field name json =
  let* s = str_field name json in
  match Rat.of_string_opt s with
  | Some r -> Ok r
  | None -> Error (Printf.sprintf "checkpoint field %s is not a rational" name)

let list_field name json =
  let* v = field name json in
  match v with
  | J.List l -> Ok l
  | _ -> Error (Printf.sprintf "checkpoint field %s is not a list" name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let unit_interval r = Rat.sign r > 0 && Rat.compare r Rat.one < 0

let subscriber_of_json json =
  let* sub = str_field "sub" json in
  let* () =
    if Engine.Request.valid_id sub then Ok () else Error "checkpoint names an invalid subscriber"
  in
  let* level = rat_field "level" json in
  let* () = if unit_interval level then Ok () else Error "checkpoint level out of (0,1)" in
  let* floor =
    match J.member "floor" json with
    | None | Some J.Null -> Ok None
    | Some _ ->
      let* f = rat_field "floor" json in
      if unit_interval f then Ok (Some f) else Error "checkpoint floor out of (0,1)"
  in
  let* spent = rat_field "spent" json in
  let* () =
    if Rat.sign spent > 0 && Rat.compare spent Rat.one <= 0 then Ok ()
    else Error "checkpoint spent out of (0,1]"
  in
  let* () =
    match floor with
    | Some f when Rat.compare spent f < 0 ->
      Error "checkpoint spent below its own floor (ledger incoherent)"
    | _ -> Ok ()
  in
  let* served = int_field "served" json in
  let* refusals = int_field "refusals" json in
  let* () =
    if served >= 0 && refusals >= 0 then Ok () else Error "checkpoint counts negative"
  in
  Ok { sub; level; floor; spent; served; refusals; active = false }

let group_of_json ~seed json =
  let* gkey = str_field "group" json in
  let* n = int_field "n" json in
  let* input = int_field "input" json in
  let* () = if n >= 1 then Ok () else Error "checkpoint group has n < 1" in
  let* () =
    if input >= 0 && input <= n then Ok () else Error "checkpoint group input out of range"
  in
  let* () =
    if String.equal gkey (group_key ~n ~input) then Ok ()
    else Error (Printf.sprintf "checkpoint group key %S is not canonical" gkey)
  in
  let* epoch = int_field "epoch" json in
  let* () = if epoch >= 0 then Ok () else Error "checkpoint epoch negative" in
  let* subs = list_field "subscribers" json in
  let* subs = map_result subscriber_of_json subs in
  let sorted = List.sort (fun a b -> String.compare a.sub b.sub) subs in
  let* () =
    let rec dup = function
      | a :: (b :: _ as rest) -> if String.equal a.sub b.sub then Some a.sub else dup rest
      | _ -> None
    in
    match dup sorted with
    | Some s -> Error (Printf.sprintf "checkpoint repeats subscriber %S" s)
    | None -> Ok ()
  in
  (* Resume the split chain where it stopped: the restored parent has
     already dealt [epoch] streams, so the next release draws the same
     stream an uninterrupted run would have. *)
  let chain = chain_parent ~seed gkey in
  for _ = 1 to epoch do
    ignore (Prob.Rng.split chain)
  done;
  Ok (gkey, { gkey; n; input; subs = sorted; epoch; chain; plan = None })

let load_checkpoint ~seed path =
  match Store.Frame.read ~version:checkpoint_version ~path with
  | Error e -> Error ("session checkpoint: " ^ Store.Frame.error_to_string e)
  | Ok raw -> (
    match J.of_string raw with
    | Error m -> Error ("session checkpoint: unparseable payload: " ^ m)
    | Ok json ->
      let* fmt = str_field "format" json in
      let* () =
        if String.equal fmt format_tag then Ok ()
        else Error (Printf.sprintf "session checkpoint: foreign format %S" fmt)
      in
      let* ckpt_seed = int_field "seed" json in
      let* () =
        if ckpt_seed = seed then Ok ()
        else
          Error
            (Printf.sprintf
               "session checkpoint: seed %d does not match --seed %d (refusing to \
                resume a different draw chain)"
               ckpt_seed seed)
      in
      let* gs = list_field "groups" json in
      let* gs = map_result (group_of_json ~seed) gs in
      Ok (List.sort (fun (a, _) (b, _) -> String.compare a b) gs))

let create ?(seed = 42) ?checkpoint () =
  match checkpoint with
  | None -> Ok { sd = seed; ckpt = None; groups = [] }
  | Some path ->
    if Sys.file_exists path then
      let* groups = load_checkpoint ~seed path in
      Ok { sd = seed; ckpt = checkpoint; groups }
    else Ok { sd = seed; ckpt = checkpoint; groups = [] }

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

let find_group t gkey = List.assoc_opt gkey t.groups

let find_sub g sub = List.find_opt (fun s -> String.equal s.sub sub) g.subs

let require_sub t ~sub ~n ~input =
  let gkey = group_key ~n ~input in
  match find_group t gkey with
  | None -> Error (Printf.sprintf "no session group %s" gkey)
  | Some g -> (
    match find_sub g sub with
    | None -> Error (Printf.sprintf "no subscriber %S in group %s" sub gkey)
    | Some s -> Ok (g, s))

(* ------------------------------------------------------------------ *)
(* Subscribe / unsubscribe / ledger                                    *)
(* ------------------------------------------------------------------ *)

let subscribe t ~sub ~n ~input ~level ?budget () =
  let* () =
    if Engine.Request.valid_id sub then Ok () else Error ("sub must be " ^ Engine.Request.id_rule)
  in
  let* () = Engine.Request.check_n n in
  if not (unit_interval level) then
    Error "alpha must lie strictly between 0 and 1"
  else if input < 0 || input > n then
    Error (Printf.sprintf "input %d out of {0..%d}" input n)
  else if (match budget with Some b -> not (unit_interval b) | None -> false) then
    Error "budget must lie strictly between 0 and 1"
  else begin
    let gkey = group_key ~n ~input in
    let g =
      match find_group t gkey with
      | Some g -> g
      | None ->
        let g =
          {
            gkey;
            n;
            input;
            subs = [];
            epoch = 0;
            chain = chain_parent ~seed:t.sd gkey;
            plan = None;
          }
        in
        t.groups <-
          List.sort (fun (a, _) (b, _) -> String.compare a b) ((gkey, g) :: t.groups);
        g
    in
    let tighten s =
      (* Floors only tighten: a spent ledger cannot be laundered by
         re-subscribing with a roomier budget. *)
      match (budget, s.floor) with
      | None, _ -> Ok ()
      | Some b, None ->
        s.floor <- Some b;
        Ok ()
      | Some b, Some f ->
        if Rat.compare b f < 0 then
          Error
            (Printf.sprintf "budget may only tighten (current floor %s, got %s)"
               (Rat.to_string f) (Rat.to_string b))
        else begin
          s.floor <- Some b;
          Ok ()
        end
    in
    match find_sub g sub with
    | Some s when s.active ->
      if not (Rat.equal s.level level) then
        Error
          (Printf.sprintf "%S is already subscribed at alpha=%s (unsubscribe first)" sub
             (Rat.to_string s.level))
      else
        let* () = tighten s in
        checkpoint_now t;
        Ok (view_of g s)
    | Some s ->
      (* A returning ledger: reactivate at the requested level, spent
         product intact — that persistence is the zero-double-spend
         guarantee. *)
      let* () = tighten s in
      s.level <- level;
      s.active <- true;
      g.plan <- None;
      Obs.incr "session.subscribes";
      checkpoint_now t;
      Ok (view_of g s)
    | None ->
      let s =
        {
          sub;
          level;
          floor = budget;
          spent = Rat.one;
          served = 0;
          refusals = 0;
          active = true;
        }
      in
      g.subs <- List.sort (fun a b -> String.compare a.sub b.sub) (s :: g.subs);
      g.plan <- None;
      Obs.incr "session.subscribes";
      checkpoint_now t;
      Ok (view_of g s)
  end

let unsubscribe t ~sub ~n ~input =
  let* g, s = require_sub t ~sub ~n ~input in
  if not s.active then Error (Printf.sprintf "%S is not subscribed" sub)
  else begin
    s.active <- false;
    g.plan <- None;
    Obs.incr "session.unsubscribes";
    checkpoint_now t;
    Ok (view_of g s)
  end

let ledger t ~sub ~n ~input =
  let* g, s = require_sub t ~sub ~n ~input in
  Ok (view_of g s)

let detach t ~sub ~group =
  match find_group t group with
  | None -> ()
  | Some g -> (
    match find_sub g sub with
    | Some s when s.active ->
      s.active <- false;
      g.plan <- None;
      Obs.incr "session.detached"
    | _ -> ())

(* ------------------------------------------------------------------ *)
(* Release: mint one epoch                                             *)
(* ------------------------------------------------------------------ *)

let plan_for g levels =
  match g.plan with
  | Some (cached, plan, checks) when List.equal Rat.equal cached levels ->
    Ok (plan, checks)
  | _ -> (
    match ML.make_plan ~n:g.n ~levels with
    | plan ->
      let checks = Certificate.plan_checks plan in
      g.plan <- Some (levels, plan, checks);
      Ok (plan, checks)
    | exception F.Injected { site; _ } ->
      Error (Faulted (Printf.sprintf "injected fault at %s" site)))

let release t ~n ~input =
  let gkey = group_key ~n ~input in
  match find_group t gkey with
  | None -> Error (Rejected (Printf.sprintf "no session group %s (subscribe first)" gkey))
  | Some g -> (
    let active = List.filter (fun s -> s.active) g.subs in
    if active = [] then
      Error (Rejected (Printf.sprintf "no active subscribers in group %s" gkey))
    else
      match F.trip "session.epoch" with
      | exception F.Injected { site = "session.epoch"; _ } ->
        (* Refused before the chain advances: the next successful epoch
           draws exactly the stream this one would have, so surviving
           subscribers' bytes are unchanged by the fault. *)
        Error (Faulted "injected fault at session.epoch")
      | () -> (
        let levels = active_levels g in
        match plan_for g levels with
        | Error e -> Error e
        | Ok (plan, plan_checks) -> (
          let t0 = Obs.now_ns () in
          Obs.span
            ~attrs:[ ("group", Obs.Str gkey); ("epoch", Obs.Int g.epoch) ]
            "session.epoch"
          @@ fun () ->
          let rng = Prob.Rng.split g.chain in
          let values = ML.release plan ~true_result:g.input rng in
          let epoch = g.epoch in
          match
            Certificate.mint ~plan ~plan_checks ~group:gkey ~epoch ~values
          with
          | exception Certificate.Unverifiable { rule } ->
            (* Mathematically impossible; refusing the epoch (with the
               chain already advanced) beats serving uncertified bytes. *)
            g.epoch <- epoch + 1;
            Error (Faulted (Printf.sprintf "epoch failed certification (%s)" rule))
          | certificate ->
            g.epoch <- epoch + 1;
            let larr = Array.of_list levels in
            let index_of level =
              let rec go i = if Rat.equal larr.(i) level then i else go (i + 1) in
              go 0
            in
            let outcomes =
              List.map
                (fun s ->
                  let value = values.(index_of s.level) in
                  let charged = Rat.mul s.spent s.level in
                  match s.floor with
                  | Some f when Rat.compare charged f < 0 ->
                    s.refusals <- s.refusals + 1;
                    Obs.incr "session.refused.budget";
                    (s.sub, Refused { level = s.level; spent = s.spent; floor = f })
                  | floor ->
                    s.spent <- charged;
                    s.served <- s.served + 1;
                    Obs.incr "session.served";
                    (s.sub, Served { level = s.level; value; spent = charged; floor }))
                active
            in
            Obs.incr "session.epochs";
            checkpoint_now t;
            Obs.observe_latency_ns "session.epoch.latency"
              (Int64.sub (Obs.now_ns ()) t0);
            Ok
              {
                r_group = gkey;
                r_epoch = epoch;
                r_levels = larr;
                r_values = values;
                r_certificate = certificate;
                r_outcomes = outcomes;
              })))
