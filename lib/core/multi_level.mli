(** Algorithm 1: releasing the query result at multiple privacy levels
    in a collusion-resistant way (§2.6, §4.1).

    The cascade applies the strongest-utility geometric mechanism
    first, then adds privacy stage by stage through the stochastic
    matrices of Lemma 3; each stage's marginal is exactly its own
    geometric mechanism, while colluders learn nothing beyond the
    least-private release (Lemma 4). *)

exception
  Lemma3_violated of {
    alpha : Rat.t;
    beta : Rat.t;
    violations : Mech.Derivability.violation list;
  }
(** Raised by {!transition} if the Lemma-3 factor fails to be
    stochastic — mathematically impossible, so seeing this means an
    arithmetic bug; the payload carries the exact Theorem-2 witnesses
    for the postmortem. *)

val transition : n:int -> alpha:Rat.t -> beta:Rat.t -> Rat.t array array
(** Lemma 3's [T_{α,β} = G(n,α)⁻¹·G(n,β)], row-stochastic whenever
    [α ≤ β]. @raise Invalid_argument on bad levels or [α > β].
    @raise Lemma3_violated on arithmetic corruption (never, absent
    bugs). *)

type plan = {
  n : int;
  levels : Rat.t array;  (** strictly increasing α's *)
  first : Mech.Mechanism.t;  (** [G(n, α₁)] *)
  stages : Rat.t array array array;  (** [stages.(i)] maps level [i] to [i+1] *)
  tables : Mech.Sampler.t array array;
      (** exact row samplers, built once: [tables.(0)] of [first],
          [tables.(i)] of [stages.(i-1)] *)
}

val make_plan : n:int -> levels:Rat.t list -> plan
(** @raise Invalid_argument when levels are empty, invalid, or not
    strictly increasing. *)

val release : plan -> true_result:int -> Prob.Rng.t -> int array
(** Run Algorithm 1: one correlated result per level, least private
    first, each drawn exactly from the plan's precomputed tables.
    @raise Invalid_argument on an out-of-range result. *)

val stage_marginal : plan -> int -> Mech.Mechanism.t
(** Exact marginal of stage [i] — equal to [G(n, αᵢ)] by Lemma 3;
    exposed so tests can assert the equality. *)

val posterior : plan -> observed:(int * int) list -> Rat.t array option
(** Exact posterior over the true result (uniform prior) given joint
    observations [(level, value)]. [None] for probability-zero
    observations. Lemma 4 manifests as: the posterior given any
    observation set equals the posterior given its least-private
    element alone. *)
