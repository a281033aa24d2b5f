(** Structured analyzer verdicts.

    Every violation found by {!Invariants} or the source checker
    ([Analysis.check]) is a diagnostic carrying a machine-readable
    location and an exact-rational witness: enough data to re-derive
    the violated inequality by hand without re-running the analyzer.
    There is no severity level: every diagnostic is a finding, and a
    tool that reports one fails. The JSON encoding is shared with
    [lib/report]'s experiment harness. *)

type location =
  | Matrix_cell of { row : int; col : int }
  | Matrix_row of { row : int }
  | Adjacent_pair of { row : int; col : int }
      (** Definition-2 constraint between inputs [row] and [row+1] at
          output column [col]. *)
  | Column_triple of { col : int; mid : int }
      (** Theorem-2 condition on entries [mid-1, mid, mid+1] of
          column [col]. *)
  | Source_line of { file : string; line : int }
  | Whole  (** the whole artifact (shape errors, missing files) *)

type t = {
  rule : string;  (** e.g. ["row-stochastic"], ["alpha-dp"], ["lint/obj-magic"] *)
  location : location;
  message : string;
  witness : (string * string) list;
      (** named exact values: LHS/RHS of the violated inequality,
          offending entries, slack — all rendered losslessly. *)
}

val error : ?witness:(string * string) list -> rule:string -> location -> string -> t

val rats : (string * Rat.t) list -> (string * string) list
(** Witness builder: exact rationals rendered as ["p/q"]. *)

val location_to_json : location -> Json.t
val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
(** One-line human rendering: [rule @ location: message [witness]]. *)
