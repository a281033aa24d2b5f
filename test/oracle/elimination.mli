(** General Gaussian elimination over a {!Linalg.Field.S}: the
    reference that Lemma 1's closed-form determinant and
    {!Mech.Geometric.apply_inverse} are checked against, and the float
    inverse the numeric ablation measures exactness with. Nothing in
    [lib/] or [bin/] inverts a general matrix. *)

module Make (F : Linalg.Field.S) : sig
  include module type of Linalg.Matrix.Make (F)

  val determinant : t -> F.t
  (** Partial-pivoting elimination; exact over exact fields.
      @raise Invalid_argument when not square. *)

  val gauss_jordan : t -> t -> t option
  (** [gauss_jordan a rhs] reduces [[a | rhs]]; [None] when [a] is
      singular. *)

  val inverse : t -> t option
  val solve : t -> vec -> vec option
  val rank : t -> int
end
