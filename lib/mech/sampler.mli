(** Exact sampling from a row of rationals: the one sampler every
    mechanism draw goes through.

    A row [p_0 … p_{m−1}] with common denominator [d] (the lcm of its
    entries' denominators) is [a_j/d]. {!of_row} runs Vose's alias
    split in integers — it compares [m·a_j] against [d] — and keeps, per
    column, a threshold [c_j ∈ [0, d]] and an alias. A draw takes one
    uniform integer [u ∈ [0, m·d)] and releases [j = u / d] when
    [u mod d < c_j], [alias_j] otherwise, so column [j] comes out with
    probability [(c_j + Σ_{alias_i = j} (d − c_i)) / (m·d)], which
    {!of_row} has checked equals [p_j] exactly. No float is involved:
    this is the row that was certified, not its 53-bit image.

    The uniform comes from {!Prob.Rng.int} when [m·d] fits in a native
    word and from 62-bit limbs by rejection otherwise (the end rows of
    [G(64, 1/2)] have [d = 3·2{^64}]). *)

type t

exception Unfaithful of { column : int }
(** The table's implied mass of [column] differs from the row's: the
    row is not a probability vector, or the split is broken. *)

val of_row : Rat.t array -> t
(** Build and check the table: O(m) integer work after the lcm.
    @raise Unfaithful unless the table reproduces the row exactly.
    @raise Invalid_argument on an empty row. *)

val draw : t -> Prob.Rng.t -> int
(** One exact draw: a column index in [\[0, m)]. *)

(** {1 Inspection} *)

val bound : t -> Bigint.t
(** [m·d]: the range of the uniform a draw consumes. *)

val outcome : t -> Bigint.t -> int
(** [outcome t u] is the column a draw releases on uniform [u ∈ [0,
    m·d)] — the decision {!draw} makes, exposed so tests can enumerate
    every [u]. *)

val width : t -> [ `Word | `Limbs ]
(** Whether draws run on native words or on {!Bigint} limbs. *)

val pmf : t -> Rat.t array
(** The distribution the table samples, recomputed from its thresholds
    and aliases. *)
