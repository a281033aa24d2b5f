(** Linear-programming front end.

    A small modelling layer — named variables, a linear-expression DSL,
    [<=]/[>=]/[=] constraints, min/max objectives — compiled to
    standard form ({!standard_form}) and solved by the exact two-phase
    revised simplex in {!Revised}, the one LP engine in [lib/]. All
    coefficients are exact rationals; see DESIGN.md for why exactness
    matters in this repository. *)

module Revised = Revised
(** Re-export: the engine {!Solver} sessions run on, and its
    {!Revised.pricing} rules. *)

module Budget = Resilience.Budget
(** Re-export: callers write [Lp.Budget.make ~deadline_ms:50 ()]
    without depending on [resilience] directly. *)

module Solver_error = Resilience.Solver_error
(** Re-export: the one taxonomy every failed solve reports through. *)

type var = int
(** Variable id, scoped to the problem that created it; indexes the
    [values] array of a {!solution}. *)

type linexpr

(** Linear-expression combinators. *)
module Expr : sig
  type t = linexpr

  val zero : t
  val const : Rat.t -> t
  val var : var -> t

  val term : Rat.t -> var -> t
  (** [term c v] is [c·v]. *)

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val scale : Rat.t -> t -> t
  val sum : t list -> t
  val add_const : t -> Rat.t -> t

  val normalize : t -> t
  (** Collapse duplicate variables, drop zero coefficients. *)

  val eval : Rat.t array -> t -> Rat.t
  (** Evaluate against an assignment indexed by variable id. *)
end

type relation = Le | Ge | Eq

type sense = Minimize | Maximize

type problem

val make : unit -> problem
(** Fresh empty problem (mutable builder). *)

val fresh_var : ?name:string -> ?lb:Rat.t option -> problem -> var
(** New decision variable. [lb] defaults to [Some Rat.zero]
    (non-negative); [None] makes the variable free. *)

val n_constraints : problem -> int

val constraint_name : problem -> int -> string
(** Name of the [i]-th constraint in addition order; anonymous
    constraints render as ["c<i>"]. Dual vectors from
    {!Solver.solve} are indexed compatibly.
    @raise Invalid_argument when out of range. *)

val add_constraint : ?name:string -> problem -> linexpr -> relation -> Rat.t -> unit
val add_le : ?name:string -> problem -> linexpr -> Rat.t -> unit
val add_ge : ?name:string -> problem -> linexpr -> Rat.t -> unit
val add_eq : ?name:string -> problem -> linexpr -> Rat.t -> unit

val set_objective : problem -> sense -> linexpr -> unit

type solution = { objective : Rat.t; values : Rat.t array (** indexed by variable id *) }

type outcome = Optimal of solution | Failed of Solver_error.t

(** {1 Standard form} *)

type standard_form = private {
  a : Revised.csc;  (** constraint matrix, column-wise *)
  b : Rat.t array;  (** right-hand side, one entry per constraint *)
  c : Rat.t array;  (** costs; negated for a [Maximize] model *)
  var_col : int array;
      (** per model variable: its (shifted, or positive-part) column *)
  var_neg_col : int array;  (** per model variable: its negative-part column, or [-1] *)
  var_lower : Rat.t option array;  (** per model variable: the shift added back *)
  flip : bool;  (** the model maximizes *)
  obj_shift : Rat.t;  (** constant added to the standard-form objective *)
}
(** The model lowered to {v min c.x  s.t.  A x = b, x >= 0 v}: a
    variable with lower bound [l] becomes [x = x' + l], a free variable
    [x = x⁺ − x⁻], and each [Le] ([Ge]) row gains a slack (surplus)
    column after the structural ones. Read-only, so code outside
    [lib/lp] (the test oracle) can solve the same system and map its
    optimum back with {!extract_outcome}. *)

val standard_form : problem -> standard_form
(** The one lowering every solve goes through. *)

val extract_outcome :
  standard_form ->
  (Rat.t * Rat.t array, Solver_error.t) Stdlib.result ->
  Rat.t array option ->
  outcome * Rat.t array option
(** [extract_outcome sf raw duals] maps a standard-form verdict — the
    raw objective and the value of every column, or the failure — and
    its per-row duals back to the model: variable values, the model's
    objective, and duals in the model's sign convention (negated for a
    [Maximize] model). A failure carries no duals. *)

(** Solver sessions: a stateful handle owning engine configuration and
    a shape-keyed basis cache, so sweeps that solve many same-shaped
    problems (α-sweeps, consumer-family loops) warm-start each solve
    from the previous optimum's basis automatically. *)
module Solver : sig
  type warm_status = Revised.warm_outcome = Cold | Warm_hit | Warm_miss

  type stats = {
    pivots : int;  (** pivots executed by this solve *)
    refactorizations : int;  (** eta-chain rebuilds during this solve *)
    warm : warm_status;
  }

  type basis
  (** An optimal basis tagged with the shape signature it belongs to;
      opaque — obtained from a previous {!result} and passed back via
      [?warm]. *)

  type result = {
    outcome : outcome;
    duals : Rat.t array option;
        (** On optimality, one dual value per constraint (in the order
            added) — the shadow prices. Sign conventions: minimizing, a
            [Ge] constraint's dual is non-negative and a [Le]
            constraint's non-positive; maximizing swaps the signs; [Eq]
            duals are unrestricted. The §2.5 minimax LP's loss-bound
            duals are the adversary's {e least-favorable prior} (see
            {!Minimax.Optimal_mechanism}). *)
    basis : basis option;
        (** Present for optima whose basis is artificial-free; feed to a
            later [solve ~warm] of a same-shaped problem. *)
    stats : stats;
  }

  type t

  val create : ?pricing:Revised.pricing -> ?crash:bool -> unit -> t
  (** A fresh session. The pricing and crash knobs exist for the
      ablation bench and apply to every solve through this session. *)

  val solve : ?budget:Budget.t -> ?warm:basis -> t -> problem -> result
  (** Exact solve through the session. Without [?warm], the session's
      cache supplies the last optimal basis recorded for a problem of
      the same shape, if any. A warm attempt that fails to refactorize
      or is primal-infeasible for the new data silently degrades to a
      cold solve ([Warm_miss] in [stats]). Warm optima carry the exact
      optimal value but may sit at a different optimal vertex than the
      cold solve would report — warm-start only where value equality is
      what is certified (see DESIGN.md §4k). [budget] bounds the solve —
      on exhaustion the outcome is [Failed (Exhausted _)] naming the
      simplex stage and the budget spent, never a bare exception. *)
end

val solve :
  ?pricing:Revised.pricing ->
  ?crash:bool ->
  ?budget:Budget.t ->
  problem ->
  outcome
(** One-shot exact solve: a fresh {!Solver} session per call, no warm
    start, so the pivot sequence is the tableau oracle's. The optional
    solver knobs exist for the ablation bench; the defaults are right
    for all other callers. *)

val check_solution : problem -> solution -> bool
(** Independent certificate: every constraint, bound, and the claimed
    objective re-evaluated against the solution values. *)

