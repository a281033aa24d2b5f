(** The consumer's optimal interaction with a deployed mechanism
    (§2.4.3): the row-stochastic reinterpretation [T] minimizing the
    minimax loss of the induced mechanism [x = y·T], found by exact
    LP. *)

type result = {
  interaction : Rat.t array array;  (** the optimal [T*] *)
  induced : Mech.Mechanism.t;  (** [x = y·T*] *)
  loss : Rat.t;  (** minimax loss of the induced mechanism *)
}

val build_problem : deployed:Mech.Mechanism.t -> Consumer.t -> Lp.problem * Lp.var array array
(** The complete interaction LP, objective included, and its [T]
    variables ([T_{r,r'}] at index [r], [r']). Exposed for the test
    oracle and the [@lp-bench] gate, which solve it off the serve path.
    @raise Invalid_argument when consumer and mechanism ranges
    mismatch. *)

val solve_budgeted :
  ?budget:Lp.Budget.t ->
  ?solver:Lp.Solver.t ->
  deployed:Mech.Mechanism.t ->
  Consumer.t ->
  (result, Lp.Solver_error.t) Stdlib.result
(** The optimal interaction, or the typed reason the budgeted solve
    stopped. The first rung of the degradation ladder ({!Serve})
    runs this against [G(n,α)]. When [solver] is given the solve runs through
    that session and may warm-start from a cached same-shaped basis;
    warm optima share the exact loss but may be a different optimal
    interaction.
    @raise Invalid_argument when consumer and mechanism ranges
    mismatch. *)

val solve : ?solver:Lp.Solver.t -> deployed:Mech.Mechanism.t -> Consumer.t -> result
(** @raise Invalid_argument when consumer and mechanism ranges
    mismatch. Always succeeds otherwise (the identity interaction is
    feasible); a solver bug falsifying that surfaces as
    {!Lp.Solver_error.Error}. *)
