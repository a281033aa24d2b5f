(** The optimal α-differentially-private mechanism for a single known
    consumer (§2.5), by exact LP over the [(n+1)²] matrix entries. *)

type result = { mechanism : Mech.Mechanism.t; loss : Rat.t }

val build_problem :
  alpha:Rat.t -> n:int -> Consumer.t -> Lp.problem * Lp.var array array * Lp.var
(** The raw LP: stochasticity + Definition-2 constraints + per-side-
    information loss bounds; returns [(problem, x variables, d)].
    Exposed for tests and extensions. *)

val solve_budgeted :
  ?pricing:Lp.Revised.pricing ->
  ?crash:bool ->
  ?budget:Lp.Budget.t ->
  ?solver:Lp.Solver.t ->
  alpha:Rat.t ->
  Consumer.t ->
  (result, Lp.Solver_error.t) Stdlib.result
(** Some optimal vertex, or the typed reason the solve stopped —
    [Exhausted] when the budget (or an injected fault) ran out
    ([dpopt optimal --max-pivots] reports it). Not on the serve path:
    {!Serve} reaches this optimum through {!Optimal_interaction}. When
    [solver] is given the solve runs through that session (its basis
    cache warm-starts repeated same-shaped solves; [pricing]/[crash]
    are then session-owned and ignored here); warm optima share the
    exact loss but may be a different optimal mechanism.
    @raise Invalid_argument on a bad [alpha]. *)

val solve :
  ?pricing:Lp.Revised.pricing ->
  ?crash:bool ->
  ?solver:Lp.Solver.t ->
  alpha:Rat.t ->
  Consumer.t ->
  result
(** Some optimal vertex. The optional solver knobs exist for the
    ablation bench; defaults are right for every other caller. Runs
    unbudgeted, so failure is impossible by Theorem 1 (the geometric
    mechanism is feasible, loss >= 0); should a solver bug falsify
    that, the witness surfaces as {!Lp.Solver_error.Error}, never
    [assert false].
    @raise Invalid_argument on a bad [alpha]. *)

val solve_structured : alpha:Rat.t -> Consumer.t -> result
(** The paper's Lemma-5 tie-break: among loss-optimal mechanisms,
    lexicographically minimize [L'(x) = Σ x_{i,r}·|i−r|]. The result
    satisfies the Lemma-5 adjacent-row pattern and factors through the
    geometric mechanism exactly. *)

(** {1 Lemma 5 structure} *)

type row_pattern = {
  c1 : int;  (** length of the tight-below prefix *)
  c2 : int;  (** 1-based start of the tight-above suffix *)
  gap_ok : bool;  (** [c2 − c1 ∈ {1, 2}] *)
}

val adjacent_row_pattern : alpha:Rat.t -> Mech.Mechanism.t -> int -> row_pattern
(** The boundary pattern between rows [i] and [i+1]. *)

val satisfies_lemma5 : alpha:Rat.t -> Mech.Mechanism.t -> bool
(** Every adjacent row pair exhibits the Lemma-5 pattern. *)

val least_favorable_prior : alpha:Rat.t -> Consumer.t -> (Rat.t array * Rat.t) option
(** The minimax theorem, computationally: the (normalized, sign-
    flipped) duals of the loss-bound rows of the §2.5 LP — the
    adversary's least-favorable prior over the side information, plus
    the minimax loss. Under this prior, the best Bayesian mechanism
    achieves exactly the minimax loss (verified by tests). [None] in
    the degenerate zero-loss case. *)

val solve_via_interaction : alpha:Rat.t -> Consumer.t -> result
(** Fast path justified by Theorem 1: geometric ∘ optimal interaction.
    The interaction LP has no differential-privacy rows (privacy is
    inherited from the geometric factor), so this is roughly an order
    of magnitude faster than {!solve} at the same exact optimum —
    the agreement is itself a theorem this repository verifies. *)
