(** Discrete probability distributions over integer supports.

    A value of type {!t} is a normalized probability mass function.
    Masses are floats (the exact-rational side of the repository lives
    in mechanism matrices, sampled exactly by [Mech.Sampler];
    distributions exist for statistics and float-valued draws). *)

type t

(** {1 Construction} *)

val of_assoc : (int * float) list -> t
(** Build from [(value, mass)] pairs. Masses are normalized to sum
    to 1; duplicate values are merged; zero-mass values dropped.
    @raise Invalid_argument on an empty or negative-mass input. *)

val of_rat_row : Rat.t array -> t
(** Interpret an array of exact rationals as masses on
    [0 .. length-1] — the bridge from mechanism-matrix rows. *)

val uniform : int -> int -> t
(** [uniform lo hi] over the inclusive range.
    @raise Invalid_argument when [hi < lo]. *)

val point : int -> t
(** Point mass. *)

(** {1 Accessors} *)

val support : t -> int array
(** Strictly increasing support (fresh copy). *)

val size : t -> int
val mass : t -> int -> float
val is_normalized : t -> bool

(** {1 Moments} *)

val mean : t -> float
val variance : t -> float

val expectation : t -> (int -> float) -> float
(** [expectation d f] is [E_{X~d}[f X]]. *)

(** {1 Sampling} *)

val sample : t -> Rng.t -> int
(** Inverse-CDF sampling, O(log support). *)

(** {1 Distances} *)

val total_variation : t -> t -> float

val kl_divergence : t -> t -> float
(** [kl_divergence a b] is [D(a ‖ b)]; [infinity] when [a]'s support
    escapes [b]'s. *)

val pp : Format.formatter -> t -> unit
