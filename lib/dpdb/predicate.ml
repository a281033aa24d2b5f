(** Predicates over rows — the parameter of a count query.

    Built from column comparisons and boolean combinators, mirroring
    the paper's example: {i "individual is an adult residing in San
    Diego, who contracted flu this October"}. *)

type t =
  | True
  | False
  | Eq of string * Value.t
  | Lt of string * Value.t
  | Le of string * Value.t
  | Gt of string * Value.t
  | Ge of string * Value.t
  | In of string * Value.t list
  | Not of t
  | And of t * t
  | Or of t * t

let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)

let rec eval schema (row : Value.t array) = function
  | True -> true
  | False -> false
  | Eq (c, v) -> Value.equal row.(Schema.column_index schema c) v
  | Lt (c, v) -> Value.compare row.(Schema.column_index schema c) v < 0
  | Le (c, v) -> Value.compare row.(Schema.column_index schema c) v <= 0
  | Gt (c, v) -> Value.compare row.(Schema.column_index schema c) v > 0
  | Ge (c, v) -> Value.compare row.(Schema.column_index schema c) v >= 0
  | In (c, vs) -> List.exists (Value.equal row.(Schema.column_index schema c)) vs
  | Not p -> not (eval schema row p)
  | And (a, b) -> eval schema row a && eval schema row b
  | Or (a, b) -> eval schema row a || eval schema row b

(* Text literals are quoted so that the rendering is valid input for
   Query_parser.parse (round-trip property, tested). *)
let literal_to_string = function
  | Value.Text s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | (Value.Int _ | Value.Bool _) as v -> Value.to_string v

let rec to_string = function
  | True -> "true"
  | False -> "false"
  | Eq (c, v) -> Printf.sprintf "%s = %s" c (literal_to_string v)
  | Lt (c, v) -> Printf.sprintf "%s < %s" c (literal_to_string v)
  | Le (c, v) -> Printf.sprintf "%s <= %s" c (literal_to_string v)
  | Gt (c, v) -> Printf.sprintf "%s > %s" c (literal_to_string v)
  | Ge (c, v) -> Printf.sprintf "%s >= %s" c (literal_to_string v)
  | In (c, vs) ->
    Printf.sprintf "%s in (%s)" c (String.concat ", " (List.map literal_to_string vs))
  | Not p -> Printf.sprintf "not (%s)" (to_string p)
  | And (a, b) -> Printf.sprintf "(%s and %s)" (to_string a) (to_string b)
  | Or (a, b) -> Printf.sprintf "(%s or %s)" (to_string a) (to_string b)

let pp fmt p = Format.pp_print_string fmt (to_string p)
