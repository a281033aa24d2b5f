(** Arbitrary-precision signed integers.

    Sign–magnitude representation over base-[2^30] limbs. This module
    replaces [zarith] (not available in this environment) and provides
    exactly the operations the exact-rational LP stack needs.

    All operations are purely functional: no argument is ever mutated. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int : t -> int option
(** [to_int x] is [Some n] when [x] fits in a native [int]. *)

val not_small : int
(** [min_int]: what {!to_small} returns for a value held in limb form.
    No inline value equals it. *)

val to_small : t -> int
(** [to_small x] is [x] as a native [int] when it is held in the inline
    small-integer representation (magnitude at most 62 bits), and
    {!not_small} otherwise; a single O(1) match, no limb traversal, no
    allocation. This is the hook {!Rat}'s native fast path keys on: an
    inline result guarantees native products of sub-2{^30} components
    cannot overflow, and {!not_small} lies outside that range. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val to_float : t -> float
(** Nearest float (loses precision beyond 53 bits, may be infinite). *)

val of_string : string -> t
(** Parses an optionally signed decimal numeral, e.g. ["-123456"].
    Underscores are permitted as digit separators.
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string

(** {1 Predicates and comparison} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool
val is_negative : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** Truncated division: quotient rounded toward zero, remainder has the
    sign of the dividend, and [a = q*b + r] with [|r| < |b|].
    @raise Division_by_zero when the divisor is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv : t -> t -> t * t
(** Euclidean division: remainder satisfies [0 <= r < |b|]. *)

val gcd : t -> t -> t
(** Greatest common divisor; always non-negative. [gcd zero zero = zero]. *)

val pow : t -> int -> t
(** [pow b e] for [e >= 0]. @raise Invalid_argument for negative [e]. *)

val shift_left : t -> int -> t
(** Multiplication by [2^k], [k >= 0]. *)

val shift_right : t -> int -> t
(** Arithmetic shift toward negative infinity by [k >= 0] bits. *)

val mul_int : t -> int -> t
val add_int : t -> int -> t

(** {1 Sizes} *)

val num_bits : t -> int
(** Bits in the magnitude; [num_bits zero = 0]. *)

val num_digits : t -> int
(** Number of decimal digits in the magnitude ([1] for zero). *)

(** {1 Pretty printing} *)

val pp : Format.formatter -> t -> unit

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end

(** {1 Number-theoretic helpers} *)

val lcm : t -> t -> t
(** Least common multiple; non-negative. [lcm zero x = zero]. *)

val isqrt : t -> t
(** Integer square root: the largest [r] with [r*r <= x].
    @raise Invalid_argument on negative input. *)

val sqrt_exact : t -> t option
(** [Some r] when [x = r*r] exactly; [None] otherwise. *)

val of_int64 : int64 -> t
val to_int64 : t -> int64 option
