(** Resource budgets for exact solves.

    A budget bounds a solve along three independent dimensions — a
    wall-clock deadline on an injectable {!Obs.Clock.t}, a simplex
    pivot allowance, and a ceiling on pivot-coefficient bit sizes.
    [None] in a dimension means unlimited. A budget is immutable; the
    solver tracks its own pivot count and peak bit size and asks
    {!check} whether any dimension has run out.

    The deadline is stored as an {e absolute} clock reading computed at
    {!make} time, so a budget threaded through a multi-stage ladder
    charges every rung against the same wall-clock window. *)

type t = {
  clock : Obs.Clock.t;
  deadline_ns : int64 option;  (** absolute reading on [clock] *)
  max_pivots : int option;
  max_bits : int option;
}

val make :
  ?clock:Obs.Clock.t ->
  ?deadline_ms:int ->
  ?max_pivots:int ->
  ?max_bits:int ->
  unit ->
  t
(** [make ()] is unlimited; [deadline_ms] is relative to the clock's
    reading now (default clock: {!Obs.Clock.monotonic}). *)

val check : t -> pivots:int -> peak_bits:int -> Solver_error.budget_kind option
(** [check b ~pivots ~peak_bits] returns the first exhausted dimension,
    testing deterministic dimensions first: [Pivots] when
    [pivots >= max_pivots], then [Bits] when [peak_bits > max_bits],
    then [Deadline] when the clock has passed the deadline. [None]
    while within budget. *)

val to_string : t -> string
(** Deterministic rendering of the configured limits (the clock and
    any absolute deadline are rendered symbolically, not as
    timestamps). *)
