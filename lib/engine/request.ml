(* Serving requests and canonical cache keys; see request.mli. *)

type loss_spec =
  | Absolute
  | Squared
  | Zero_one
  | Deadzone of int
  | Capped of int
  | Asymmetric of Rat.t * Rat.t

type side_spec =
  | Full
  | At_least of int
  | At_most of int
  | Interval of int * int
  | Members of int list

type t = {
  n : int;
  alpha : Rat.t;
  loss : loss_spec;
  side : side_spec;
  input : int;
  count : int;
}

let loss_spec_to_string = function
  | Absolute -> "absolute"
  | Squared -> "squared"
  | Zero_one -> "zero-one"
  | Deadzone w -> Printf.sprintf "deadzone:%d" w
  | Capped c -> Printf.sprintf "capped:%d" c
  | Asymmetric (o, u) -> Printf.sprintf "asym:%s,%s" (Rat.to_string o) (Rat.to_string u)

let side_spec_to_string = function
  | Full -> "full"
  | At_least k -> Printf.sprintf ">=%d" k
  | At_most k -> Printf.sprintf "<=%d" k
  | Interval (lo, hi) -> Printf.sprintf "%d-%d" lo hi
  | Members ms -> String.concat "," (List.map string_of_int ms)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate_loss = function
  | Absolute | Squared | Zero_one -> None
  | Deadzone w when w < 0 -> Some "deadzone width must be non-negative"
  | Capped c when c < 1 -> Some "capped cap must be >= 1"
  | Asymmetric (o, u) when Rat.sign o <= 0 || Rat.sign u <= 0 ->
    Some "asymmetric costs must be positive"
  | Deadzone _ | Capped _ | Asymmetric _ -> None

let validate_side ~n = function
  | Full -> None
  | At_least k | At_most k ->
    if k < 0 || k > n then Some (Printf.sprintf "side bound %d out of {0..%d}" k n) else None
  | Interval (lo, hi) ->
    if lo < 0 || hi > n || lo > hi then
      Some (Printf.sprintf "side interval %d-%d not within {0..%d}" lo hi n)
    else None
  | Members [] -> Some "side member list is empty"
  | Members ms ->
    List.find_map
      (fun m ->
        if m < 0 || m > n then Some (Printf.sprintf "side member %d out of {0..%d}" m n)
        else None)
      ms

let max_n = 64
let over_cap n = Printf.sprintf "n %d exceeds the cap of %d" n max_n

let check_n n =
  if n < 1 then Error "n must be >= 1" else if n > max_n then Error (over_cap n) else Ok ()

let make ?(input = 0) ?(count = 1) ~n ~alpha ~loss ~side () =
  match check_n n with
  | Error m -> Error m
  | Ok () ->
    if Rat.sign alpha <= 0 || Rat.compare alpha Rat.one >= 0 then
      Error "alpha must lie strictly between 0 and 1"
    else if input < 0 || input > n then Error (Printf.sprintf "input %d out of {0..%d}" input n)
    else if count < 1 then Error "count must be >= 1"
    else
      match validate_loss loss with
      | Some m -> Error m
      | None -> (
        match validate_side ~n side with
        | Some m -> Error m
        | None -> Ok { n; alpha; loss; side; input; count })

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)
(* ------------------------------------------------------------------ *)

(* Side information reduced to its member set over {0..n}. *)
let side_members ~n = function
  | Full -> List.init (n + 1) Fun.id
  | At_least k -> List.init (n - k + 1) (fun i -> k + i)
  | At_most k -> List.init (k + 1) Fun.id
  | Interval (lo, hi) -> List.init (hi - lo + 1) (fun i -> lo + i)
  | Members ms -> List.sort_uniq compare ms

(* Losses that are equal as functions on {0..n}² key identically:
   deadzone:0 is |i−r|; capped:c with c >= n never saturates because
   |i−r| <= n; asym:1,1 charges one per unit on both sides. *)
let canonical_loss ~n = function
  | Deadzone 0 -> Absolute
  | Capped c when c >= n -> Absolute
  | Asymmetric (o, u) when Rat.is_one o && Rat.is_one u -> Absolute
  | l -> l

let canonical_key t =
  let members = side_members ~n:t.n t.side in
  let side =
    if List.length members = t.n + 1 then "full"
    else String.concat "," (List.map string_of_int members)
  in
  Printf.sprintf "n=%d;a=%s;l=%s;s=%s" t.n (Rat.to_string t.alpha)
    (loss_spec_to_string (canonical_loss ~n:t.n t.loss))
    side

(* ------------------------------------------------------------------ *)
(* Consumer construction                                               *)
(* ------------------------------------------------------------------ *)

let loss_fn t =
  let module L = Minimax.Loss in
  match t.loss with
  | Absolute -> L.absolute
  | Squared -> L.squared
  | Zero_one -> L.zero_one
  | Deadzone w -> L.deadzone ~width:w
  | Capped c -> L.capped ~cap:c
  | Asymmetric (o, u) -> L.asymmetric ~over:o ~under:u

let side_info t =
  let module S = Minimax.Side_info in
  match t.side with
  | Full -> S.full t.n
  | At_least k -> S.at_least ~n:t.n k
  | At_most k -> S.at_most ~n:t.n k
  | Interval (lo, hi) -> S.interval ~n:t.n lo hi
  | Members ms -> S.make ~n:t.n ms

let consumer t = Minimax.Consumer.make ~loss:(loss_fn t) ~side_info:(side_info t) ()

(* ------------------------------------------------------------------ *)
(* Line grammar (wire protocol v1; see PROTOCOL.md)                    *)
(* ------------------------------------------------------------------ *)

let version = 1

type wire = { id : string option; seed : int option; request : t }

type session_verb =
  | Subscribe of {
      sub : string;
      n : int;
      input : int;
      level : Rat.t;
      budget : Rat.t option;
    }
  | Release of { n : int; input : int }
  | Unsubscribe of { sub : string; n : int; input : int }
  | Ledger of { sub : string; n : int; input : int }

type parsed =
  | Query of wire
  | Stats of { id : string option }
  | Session of { id : string option; verb : session_verb }

type wire_error =
  | Unsupported_version of { got : string option }
  | Unknown_key of { key : string }
  | Malformed of { msg : string }
  | Invalid of { msg : string }

let wire_error_kind = function
  | Unsupported_version _ -> "unsupported_version"
  | Unknown_key _ -> "unknown_key"
  | Malformed _ -> "malformed"
  | Invalid _ -> "invalid"

let wire_error_to_string = function
  | Unsupported_version { got = None } ->
    Printf.sprintf "missing protocol version (every request line starts with v=%d)" version
  | Unsupported_version { got = Some v } ->
    Printf.sprintf "unsupported protocol version %S (this server speaks v=%d)" v version
  | Unknown_key { key } ->
    Printf.sprintf
      "unknown key %S (v=%d knows v, op, id, seed, n, alpha, loss, side, input, count, sub, \
       budget)"
      key version
  | Malformed { msg } -> msg
  | Invalid { msg } -> msg

let parse_loss s =
  match String.split_on_char ':' s with
  | [ "absolute" ] | [ "abs" ] -> Ok Absolute
  | [ "squared" ] | [ "sq" ] -> Ok Squared
  | [ "zero-one" ] | [ "01" ] -> Ok Zero_one
  | [ "deadzone"; w ] -> (
    match int_of_string_opt w with
    | Some w -> Ok (Deadzone w)
    | None -> Error "deadzone:<width> needs an integer")
  | [ "capped"; c ] -> (
    match int_of_string_opt c with
    | Some c -> Ok (Capped c)
    | None -> Error "capped:<cap> needs an integer")
  | [ "asym"; ou ] -> (
    match String.split_on_char ',' ou with
    | [ o; u ] -> (
      match (Rat.of_string_opt o, Rat.of_string_opt u) with
      | Some over, Some under -> Ok (Asymmetric (over, under))
      | _ -> Error "asym:<over>,<under> needs two rationals")
    | _ -> Error "asym:<over>,<under>")
  | _ ->
    Error
      (Printf.sprintf
         "unknown loss %S (absolute | squared | zero-one | deadzone:<w> | capped:<c> | \
          asym:<over>,<under>)"
         s)

let parse_side s =
  let prefixed p = String.length s > 2 && String.sub s 0 2 = p in
  let tail () = String.sub s 2 (String.length s - 2) in
  if s = "full" then Ok Full
  else if prefixed ">=" then
    match int_of_string_opt (tail ()) with
    | Some k -> Ok (At_least k)
    | None -> Error ">=k needs an integer"
  else if prefixed "<=" then
    match int_of_string_opt (tail ()) with
    | Some k -> Ok (At_most k)
    | None -> Error "<=k needs an integer"
  else if String.contains s '-' then
    match String.split_on_char '-' s with
    | [ lo; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi -> Ok (Interval (lo, hi))
      | _ -> Error "range must be lo-hi with integers")
    | _ -> Error "range must be lo-hi"
  else
    let members = List.map int_of_string_opt (String.split_on_char ',' s) in
    if List.for_all Option.is_some members then
      Ok (Members (List.filter_map Fun.id members))
    else Error (Printf.sprintf "cannot parse side information %S" s)

let known_keys =
  [ "v"; "op"; "id"; "seed"; "n"; "alpha"; "loss"; "side"; "input"; "count"; "sub"; "budget" ]

let id_rule = "1-64 chars of [A-Za-z0-9._:-]"

let valid_id s =
  let n = String.length s in
  n >= 1 && n <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.' || c = ':')
       s

let of_line line =
  let fields =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  in
  let split field =
    match String.index_opt field '=' with
    | None -> Error (Malformed { msg = Printf.sprintf "expected key=value, got %S" field })
    | Some i ->
      Ok (String.sub field 0 i, String.sub field (i + 1) (String.length field - i - 1))
  in
  let rec pairs acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest -> ( match split f with Error e -> Error e | Ok kv -> pairs (kv :: acc) rest)
  in
  match pairs [] fields with
  | Error e -> Error e
  | Ok [] -> Error (Malformed { msg = "empty request line" })
  | Ok ((k0, v0) :: rest) -> (
    if k0 <> "v" then Error (Unsupported_version { got = None })
    else if v0 <> string_of_int version then Error (Unsupported_version { got = Some v0 })
    else
      (* Unknown keys are typed rejections, never silent drops: a v=2
         client talking to a v=1 server hears about it immediately. *)
      match List.find_opt (fun (k, _) -> not (List.mem k known_keys)) rest with
      | Some (k, _) -> Error (Unknown_key { key = k })
      | None -> (
        let all = ("v", v0) :: rest in
        let dup =
          List.find_opt
            (fun (k, _) -> List.length (List.filter (fun (k', _) -> k' = k) all) > 1)
            all
        in
        match dup with
        | Some (k, _) -> Error (Malformed { msg = Printf.sprintf "duplicate key %S" k })
        | None -> (
          let find k = List.assoc_opt k rest in
          let int_field k =
            match find k with
            | None -> Ok None
            | Some v -> (
              match int_of_string_opt v with
              | Some i -> Ok (Some i)
              | None -> Error (Invalid { msg = Printf.sprintf "%s=%S is not an integer" k v }))
          in
          let id =
            match find "id" with
            | None -> Ok None
            | Some s ->
              if valid_id s then Ok (Some s)
              else
                Error
                  (Malformed { msg = Printf.sprintf "id %S must be %s" s id_rule })
          in
          match find "op" with
          | Some "stats" -> (
            (* The admin verb: a stats line names no consumer, so any
               query field alongside it is a typed rejection. *)
            match List.find_opt (fun (k, _) -> k <> "op" && k <> "id") rest with
            | Some (k, _) ->
              Error (Invalid { msg = Printf.sprintf "op=stats takes no %s= (only id=)" k })
            | None -> ( match id with Error e -> Error e | Ok id -> Ok (Stats { id })))
          | Some (("subscribe" | "release" | "unsubscribe" | "ledger") as op) -> (
            (* Session verbs validate against their own allowed-key
               sets, like op=stats: a stray query field is a typed
               rejection, never a silent drop. *)
            let allowed =
              match op with
              | "subscribe" -> [ "op"; "id"; "sub"; "n"; "input"; "alpha"; "budget" ]
              | "release" -> [ "op"; "id"; "n"; "input" ]
              | _ -> [ "op"; "id"; "sub"; "n"; "input" ]
            in
            match List.find_opt (fun (k, _) -> not (List.mem k allowed)) rest with
            | Some (k, _) ->
              Error (Invalid { msg = Printf.sprintf "op=%s takes no %s=" op k })
            | None -> (
              let required_int k =
                match int_field k with
                | Error e -> Error e
                | Ok None -> Error (Invalid { msg = Printf.sprintf "op=%s needs %s=" op k })
                | Ok (Some v) -> Ok v
              in
              let required_sub () =
                match find "sub" with
                | None -> Error (Invalid { msg = Printf.sprintf "op=%s needs sub=" op })
                | Some s ->
                  if valid_id s then Ok s
                  else
                    Error (Malformed { msg = Printf.sprintf "sub %S must be %s" s id_rule })
              in
              match (id, required_int "n", required_int "input") with
              | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
              | _, Ok n, _ when n > max_n -> Error (Invalid { msg = over_cap n })
              | Ok id, Ok n, Ok input -> (
                match op with
                | "release" -> Ok (Session { id; verb = Release { n; input } })
                | "unsubscribe" -> (
                  match required_sub () with
                  | Error e -> Error e
                  | Ok sub -> Ok (Session { id; verb = Unsubscribe { sub; n; input } }))
                | "ledger" -> (
                  match required_sub () with
                  | Error e -> Error e
                  | Ok sub -> Ok (Session { id; verb = Ledger { sub; n; input } }))
                | _ -> (
                  match required_sub () with
                  | Error e -> Error e
                  | Ok sub -> (
                    match find "alpha" with
                    | None -> Error (Invalid { msg = "op=subscribe needs alpha=" })
                    | Some a -> (
                      match Rat.of_string_opt a with
                      | None ->
                        Error
                          (Invalid { msg = "alpha= is not a rational (use p/q or decimals)" })
                      | Some level -> (
                        match find "budget" with
                        | None ->
                          Ok
                            (Session
                               { id; verb = Subscribe { sub; n; input; level; budget = None } })
                        | Some b -> (
                          match Rat.of_string_opt b with
                          | None ->
                            Error
                              (Invalid
                                 { msg = "budget= is not a rational (use p/q or decimals)" })
                          | Some budget ->
                            Ok
                              (Session
                                 {
                                   id;
                                   verb =
                                     Subscribe { sub; n; input; level; budget = Some budget };
                                 })))))))))
          | Some op ->
            Error
              (Invalid
                 {
                   msg =
                     Printf.sprintf
                       "unknown op %S (this server knows op=stats, subscribe, release, \
                        unsubscribe, ledger)"
                       op;
                 })
          | None -> (
          match List.find_opt (fun (k, _) -> k = "sub" || k = "budget") rest with
          | Some (k, _) ->
            Error
              (Invalid
                 { msg = Printf.sprintf "%s= belongs to session verbs (op=subscribe, ...)" k })
          | None -> (
          match (id, int_field "seed", int_field "n", int_field "input", int_field "count") with
          | Error e, _, _, _, _
          | _, Error e, _, _, _
          | _, _, Error e, _, _
          | _, _, _, Error e, _
          | _, _, _, _, Error e -> Error e
          | Ok id, Ok seed, Ok n, Ok input, Ok count -> (
            match n with
            | None -> Error (Invalid { msg = "missing field n=" })
            | Some n -> (
              match Option.map Rat.of_string_opt (find "alpha") with
              | None -> Error (Invalid { msg = "missing field alpha=" })
              | Some None ->
                Error (Invalid { msg = "alpha= is not a rational (use p/q or decimals)" })
              | Some (Some alpha) -> (
                let loss =
                  match find "loss" with None -> Ok Absolute | Some s -> parse_loss s
                in
                let side =
                  match find "side" with None -> Ok Full | Some s -> parse_side s
                in
                match (loss, side) with
                | Error m, _ | _, Error m -> Error (Invalid { msg = m })
                | Ok loss, Ok side -> (
                  match make ?input ?count ~n ~alpha ~loss ~side () with
                  | Ok request -> Ok (Query { id; seed; request })
                  | Error m -> Error (Invalid { msg = m }))))))))))

let to_line ?id ?seed t =
  Printf.sprintf "v=%d%s%s n=%d alpha=%s loss=%s side=%s input=%d count=%d" version
    (match id with None -> "" | Some i -> " id=" ^ i)
    (match seed with None -> "" | Some s -> Printf.sprintf " seed=%d" s)
    t.n (Rat.to_string t.alpha) (loss_spec_to_string t.loss) (side_spec_to_string t.side)
    t.input t.count

let session_to_line ?id verb =
  let tag = match id with None -> "" | Some i -> " id=" ^ i in
  match verb with
  | Subscribe { sub; n; input; level; budget } ->
    Printf.sprintf "v=%d op=subscribe%s sub=%s n=%d input=%d alpha=%s%s" version tag sub n
      input (Rat.to_string level)
      (match budget with None -> "" | Some b -> " budget=" ^ Rat.to_string b)
  | Release { n; input } -> Printf.sprintf "v=%d op=release%s n=%d input=%d" version tag n input
  | Unsubscribe { sub; n; input } ->
    Printf.sprintf "v=%d op=unsubscribe%s sub=%s n=%d input=%d" version tag sub n input
  | Ledger { sub; n; input } ->
    Printf.sprintf "v=%d op=ledger%s sub=%s n=%d input=%d" version tag sub n input

let loss_spec_of_string = parse_loss
let side_spec_of_string = parse_side
