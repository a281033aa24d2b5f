(** Oblivious privacy mechanisms for count queries.

    A mechanism over results [{0..n}] is an [(n+1) × (n+1)]
    row-stochastic matrix of exact rationals: entry [(i, r)] is the
    probability of releasing [r] when the true count is [i] (§2.2 of
    the paper). The matrix view makes post-processing a matrix product
    and differential privacy a family of linear inequalities. *)

type t

exception Not_stochastic of string
(** Raised by constructors when a matrix is not row-stochastic; the
    payload describes the first offense. *)

(** {1 Construction} *)

val make : Rat.t array array -> t
(** Validates squareness, non-negativity, and unit row sums; copies
    its input. @raise Not_stochastic otherwise. *)

val unsafe_of_audited : Rat.t array array -> t
(** {!make} with no validation at all: squareness, non-negativity and
    unit row sums are not checked. Its only caller is
    [Engine.Compiled.of_matrix], which passes a matrix that
    [Check.Invariants.audit_release] has just certified row-stochastic,
    so verify-on-load does not sum each row twice; the
    [lint/unaudited-mechanism] rule refuses any other call site.
    Everyone else uses {!make}. Copies its input. *)

val of_rows : Rat.t list list -> t
(** List-of-rows convenience over {!make}. *)

val identity : int -> t
(** The non-private mechanism that releases the true count. *)

val compose : t -> Rat.t array array -> t
(** [compose y t] is the induced mechanism [y·t] of Definition 3 —
    post-processing by a row-stochastic [t].
    @raise Not_stochastic when [t] is not row-stochastic. *)

(** {1 Access} *)

val n : t -> int
(** Top of the result range; the matrix is [(n+1) × (n+1)]. *)

val size : t -> int
(** [n + 1]. *)

val prob : t -> input:int -> output:int -> Rat.t
val row : t -> int -> Rat.t array
val column : t -> int -> Rat.t array
val matrix : t -> Rat.t array array
val equal : t -> t -> bool

(** {1 Differential privacy} *)

val dp_violations : alpha:Rat.t -> t -> ((int * int) * [ `Lower | `Upper ]) list
(** Violated adjacent-input constraints of Definition 2 at level
    [alpha]. @raise Invalid_argument when [alpha] is outside [0,1]. *)

val is_dp : alpha:Rat.t -> t -> bool

val privacy_level : t -> Rat.t
(** The strongest (largest) [alpha] for which the mechanism is
    [alpha]-DP; [Rat.zero] when some column mixes zero and non-zero
    adjacent entries. *)

(** {1 Sampling} *)

val sample : t -> input:int -> Prob.Rng.t -> int
(** Draw an output from row [input] exactly, through a {!Sampler}
    table built for the call; equal to the first of the draws a
    table built once for that row yields on the same generator.
    @raise Invalid_argument on out-of-range input. *)

(** {1 Loss} *)

val expected_loss : t -> loss:(int -> int -> Rat.t) -> int -> Rat.t
(** Expected loss at true input [i] over the mechanism's randomness. *)

val minimax_loss : t -> loss:(int -> int -> Rat.t) -> side_info:int list -> Rat.t
(** Equation (1): worst expected loss over the side-information set.
    @raise Invalid_argument on empty side information. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
