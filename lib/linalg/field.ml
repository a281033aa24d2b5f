(** Algebraic field signature of the linear-algebra stack. [lib/]
    instantiates it once, over exact rationals; the floating-point
    instance used by the numeric ablation lives in the test-only
    [lp_oracle] library (test/oracle/). *)

module type S = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t

  val div : t -> t -> t
  (** @raise Division_by_zero on exact fields when the divisor is zero. *)

  val neg : t -> t
  val abs : t -> t
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val is_zero : t -> bool

  val sign : t -> int
  (** [-1], [0], or [1]; floating-point instantiations may use a
      tolerance for [0]. *)

  val bit_size : t -> int
  (** Operand size in bits for exact fields ({!Rat.bit_size}); [0] for
      floating point, whose operands do not grow. Observability
      histograms use this to track coefficient blow-up and skip the
      measurement entirely when it is always zero. *)

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

(** Exact rationals as a field. *)
module Rational : S with type t = Rat.t = struct
  include Rat
end
