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

val ( &&& ) : t -> t -> t
(** Conjunction combinator. *)

val ( ||| ) : t -> t -> t
(** Disjunction combinator. *)

val eval : Schema.t -> Value.t array -> t -> bool
(** @raise Invalid_argument when the predicate references an unknown
    column of the schema. *)

val to_string : t -> string
(** Rendering that {!Query_parser.parse} accepts back (text literals
    are single-quoted). *)

val pp : Format.formatter -> t -> unit
