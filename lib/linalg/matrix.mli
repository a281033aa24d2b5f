(** Dense matrices and vectors over an arbitrary {!Field.S}.

    Matrices are immutable from the caller's point of view: every
    operation returns fresh storage; accessors copy. Row-major
    indexing. *)

module Make (F : Field.S) : sig
  type elt = F.t
  type vec = F.t array
  type t = F.t array array

  (** {1 Construction and access} *)

  val make : int -> int -> F.t -> t
  val init : int -> int -> (int -> int -> F.t) -> t
  val identity : int -> t

  val of_rows : F.t list list -> t
  (** @raise Invalid_argument on ragged rows. *)

  val of_arrays : F.t array array -> t
  (** Defensive copy. @raise Invalid_argument on ragged rows. *)

  val copy : t -> t
  val rows : t -> int
  val cols : t -> int
  val get : t -> int -> int -> F.t
  val row : t -> int -> vec
  val column : t -> int -> vec
  val transpose : t -> t
  val map : (F.t -> F.t) -> t -> t

  (** {1 Algebra} *)

  val equal : t -> t -> bool
  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : F.t -> t -> t

  val mul : t -> t -> t
  (** @raise Invalid_argument on a shape mismatch (as do [add], [sub],
      and the vector products). *)

  val mul_vec : t -> vec -> vec
  (** Matrix × column vector. *)

  val vec_mul : vec -> t -> vec
  (** Row vector × matrix. *)

  val dot : vec -> vec -> F.t

  (** {1 Stochastic-matrix predicates} *)

  val row_sums : t -> vec
  val is_nonnegative : t -> bool

  val is_generalized_stochastic : t -> bool
  (** Every row sums to exactly one (entries may be negative). *)

  val is_row_stochastic : t -> bool
  (** Non-negative with unit row sums. *)

  (** {1 Printing} *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Q : module type of Make (Field.Rational)
(** Exact-rational instantiation — the default across the repository. *)
