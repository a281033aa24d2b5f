(** Two-phase primal simplex on the dense tableau: the test oracle the
    revised engine ([Lp.Revised]) replicates pivot for pivot.

    Solves the standard-form problem {v min c.x  s.t.  A x = b, x >= 0 v}.

    The functor gives both the exact solver (over {!Linalg.Field.Rational}
    — optimal privacy mechanisms sit at highly degenerate vertices where
    floating point mis-classifies tight constraints) and a
    floating-point mirror used for the numeric ablation.

    Implementation choices (see the ABL1 bench for their measured
    impact): Dantzig pricing with a lexicographic ratio test and a
    Bland's-rule backstop against stalls; a crash basis adopting
    slack-like singleton columns so only equality-style rows need
    artificial variables. *)

module Make (F : Linalg.Field.S) : sig
  module Solver_error = Resilience.Solver_error

  type result =
    | Optimal of F.t * F.t array  (** objective value, primal solution *)
    | Failed of Solver_error.t
        (** infeasible, unbounded, or exhausted mid-phase under a
            budget or an ambient fault plan. *)

  type pricing = Lp.Revised.pricing = Dantzig_lex | Bland

  val solve_standard :
    ?pricing:pricing ->
    ?crash:bool ->
    ?budget:Resilience.Budget.t ->
    a:F.t array array ->
    b:F.t array ->
    c:F.t array ->
    unit ->
    result
  (** [crash] (default true) enables the singleton-column crash basis.
      [budget] bounds the solve through the same {!Resilience.Guard}
      the revised engine runs, checked once per pricing iteration at
      the sites ["simplex.phase1"] / ["simplex.phase2"].
      @raise Invalid_argument on shape mismatches. *)

  val solve_standard_with_duals :
    ?pricing:pricing ->
    ?crash:bool ->
    ?budget:Resilience.Budget.t ->
    a:F.t array array ->
    b:F.t array ->
    c:F.t array ->
    unit ->
    result * F.t array option
  (** Like {!solve_standard} but also returns, on optimality, the dual
      vector [y] (one entry per row, original row orientation). It
      satisfies strong duality [y·b = objective] and dual feasibility
      [c_j − y·A_j >= 0] for every column — a complete optimality
      certificate that the test suite checks independently. *)

  val check_feasible : a:F.t array array -> b:F.t array -> F.t array -> bool
  (** Independent certificate: non-negativity and [Ax = b]. *)
end

module Exact : module type of Make (Linalg.Field.Rational)
module Floating : module type of Make (Float_field)
