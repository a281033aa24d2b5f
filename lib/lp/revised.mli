(** Revised primal simplex with a product-form basis factorization:
    the one LP engine in [lib/].

    Solves the standard-form problem {v min c.x  s.t.  A x = b, x >= 0 v}
    with the constraint matrix stored column-wise and sparse (CSC over
    {!Rat.t}), pivoting through an incrementally updated eta chain
    (FTRAN/BTRAN) that is refactorized periodically. Pricing, ratio
    test, lexicographic tie-break, stall accounting, and the Bland
    fallback replicate the dense full-tableau oracle's decisions
    {e exactly} (same scan orders, same strict comparisons, exact ℚ
    arithmetic), so a cold solve visits the oracle's pivot sequence
    and returns byte-identical objective, solution, and duals. The
    oracle is the test-only [lp_oracle] library (test/oracle/); the
    qcheck property and the [@lp-bench] gate both hold this engine to
    it.

    The extra capability over the oracle is the warm start: a previous
    optimum's basis (structural column per row) can seed a new solve of
    a same-shaped problem, skipping phase 1 entirely when the basis
    refactorizes and stays primal-feasible under the new data. Warm
    solves reach the same optimal {e value} but may report a different
    optimal vertex, so callers only warm-start where value equality is
    what is certified (see DESIGN.md §4k). *)

(** Compressed sparse-column matrix; no explicit zeros. *)
type csc = {
  m : int;  (** rows *)
  n : int;  (** structural columns *)
  colp : int array;  (** length [n+1]: column [j] occupies [colp.(j) .. colp.(j+1)-1] *)
  rowi : int array;  (** row index of each stored entry *)
  vals : Rat.t array;  (** entry values *)
}

type result =
  | Optimal of Rat.t * Rat.t array  (** objective value, primal solution *)
  | Failed of Resilience.Solver_error.t

type warm_outcome = Cold | Warm_hit | Warm_miss

type pricing =
  | Dantzig_lex  (** most-negative reduced cost + lexicographic ratio test (default) *)
  | Bland  (** smallest-index anti-cycling rule; slow but unconditionally terminating *)

val stall_threshold : int
(** Consecutive degenerate pivots after which [Dantzig_lex] falls back
    to Bland's rule for the rest of the phase. Shared with the oracle
    so both engines switch at the same tie. *)

type stats = {
  pivots : int;  (** every executed pivot, drive-out pivots included *)
  refactorizations : int;  (** eta-chain rebuilds ([lp.refactor] in Obs) *)
  warm : warm_outcome;
}

type solved = {
  res : result;
  duals : Rat.t array option;  (** per original row, on optimality *)
  basis : int array option;
      (** structural basic column per row; present only for optima whose
          basis is artificial-free (the warm-startable ones) *)
  stats : stats;
}

val solve :
  ?pricing:pricing ->
  ?crash:bool ->
  ?budget:Resilience.Budget.t ->
  ?warm:int array ->
  a:csc ->
  b:Rat.t array ->
  c:Rat.t array ->
  unit ->
  solved
(** One {!Resilience.Guard} per solve, checked once per pricing
    iteration at the sites [simplex.phase1] and [simplex.phase2].
    [warm] is attempted first and silently degrades to a cold solve
    ([Warm_miss]) when the basis is singular against the new matrix,
    primal-infeasible for the new data, or shaped wrong. *)
