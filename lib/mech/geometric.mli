(** The geometric mechanism, in both of the paper's forms.

    - Definition 1 (unbounded): output [true + Z],
      [Pr[Z = z] = (1−α)/(1+α)·α^{|z|}] over all integers.
    - Definition 4 (range-restricted): outputs clamped to [{0..n}],
      the boundary rows absorbing the tails.

    The two are equivalent (each derivable from the other); the matrix
    form is the ground truth for all exact computations. *)

val check_alpha : Rat.t -> unit
(** @raise Invalid_argument unless [0 < alpha < 1]. *)

val matrix : n:int -> alpha:Rat.t -> Mechanism.t
(** Range-restricted geometric mechanism [G(n,α)] (Definition 4).
    @raise Invalid_argument on a bad [alpha] or [n < 1]. *)

val scaled_matrix : n:int -> alpha:Rat.t -> Rat.t array array
(** [G'(n,α) = [α^{|i−j|}]] — the column-scaled form used by the §3
    determinant arguments. *)

val scaled_determinant : n:int -> alpha:Rat.t -> Rat.t
(** Lemma 1's closed form: [(1 − α²)^n] for the [(n+1)×(n+1)] scaled
    matrix. *)

val apply_inverse : n:int -> alpha:Rat.t -> Rat.t array array -> Rat.t array array
(** [apply_inverse ~n ~alpha m] is [G(n,α)⁻¹·m], exactly, in
    [O(n·cols)] operations: [G⁻¹] is tridiagonal, row [0] being
    [(1, −α)/(1−α)] (mirrored at [n]) and an interior row
    [(−α, 1+α², −α)/(1−α)²]. [m] may have any number of columns.
    @raise Invalid_argument on a bad [alpha], [n < 1], or [m] without
    [n+1] rows. *)

val unbounded_noise_pmf : alpha:Rat.t -> int -> Rat.t
(** Mass of the two-sided geometric noise at a given offset. *)

val unbounded_pmf : alpha:Rat.t -> center:int -> int -> Rat.t
(** Mass of the unbounded mechanism's output at [z] given the true
    value [center]. *)

val sample_noise : alpha:Rat.t -> Prob.Rng.t -> int
(** Sample the two-sided geometric noise [Z] of Definition 1 exactly:
    every coin is a {!Sampler} draw, no float is involved. *)

val sample_unbounded : alpha:Rat.t -> input:int -> Prob.Rng.t -> int
(** The unbounded mechanism: true result plus noise. *)

val sample_clamped : n:int -> alpha:Rat.t -> input:int -> Prob.Rng.t -> int
(** Unbounded draw clamped into [{0..n}] — tests verify this induces
    exactly [matrix ~n ~alpha]. *)

val is_self_dp : n:int -> alpha:Rat.t -> bool
(** Definition 2 holds for [G(n,α)] at its own [α] (always true;
    exposed for the test suite). *)
