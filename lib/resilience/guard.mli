(** The per-solve budget and fault guard of every simplex engine (the
    revised engine in [lib/lp] and the test-only tableau oracle).

    An engine makes one guard per solve, calls {!check} once per
    pricing iteration — so exhaustion is detected before the offending
    pivot, never after — and {!count_pivot} / {!note_bits} at each
    pivot. With no budget and no ambient {!Fault} plan the guard is
    inert: {!check} is one field read and no bit sizes are measured. *)

type t

val make : Budget.t option -> t
(** Reads {!Fault.enabled} once, here. *)

val check : t -> site:string -> Solver_error.exhaustion option
(** The ambient fault plan at [site] first (a firing trigger forces an
    exhaustion or injects bit blow-up), then the budget dimensions in
    {!Budget.check}'s order. *)

val count_pivot : t -> unit

val tracks_bits : t -> bool
(** A bit ceiling or a fault plan is in force: only then need an engine
    measure pivot bit sizes for {!note_bits}. *)

val note_bits : t -> int -> unit
