(** The end-to-end "serve this consumer" path: budgeted solving with
    certified graceful degradation to the geometric mechanism.

    The ladder has two rungs, both built on [G(n,α)]:

    + {b Geometric_remap} — [G(n,α)] composed with the consumer's
      optimal interaction (§2.4.3). By Theorem 1 this is optimal for
      every minimax consumer with a monotone loss: its loss equals the
      §2.5 tailored LP's, exactly in ℚ, and the interaction LP is much
      smaller (no differential-privacy rows).
    + {b Geometric_raw} — [G(n,α)] itself, no LP at all: the
      universally optimal mechanism of Theorems 1–2 and of
      Ghosh–Roughgarden–Sundararajan's Bayesian counterpart, served
      without the consumer's remap.

    The §2.5 tailored LP ({!Optimal_mechanism}) is not a rung: Theorem 1
    makes it redundant on the serve path, and it remains the
    reproduction path and the test oracle for the first rung's loss.
    [Tailored] stays in {!rung} so that callers matching on it keep
    compiling; {!serve} never returns it, and no release carries it.

    A rung is taken when its solve succeeds {e and} the produced matrix
    re-verifies through {!Check.Invariants.audit_release}
    (row-stochasticity, Definition-2 α-DP and Theorem-2 derivability,
    which holds by construction on both rungs). Exhaustion of the
    shared {!Lp.Budget.t}, an injected fault, or a failed certificate
    all degrade to the raw rung — a degraded answer is still a
    certified private answer. Every descent bumps the
    ["resilience.degradations"] counter.

    The returned {!provenance} is deterministic (no timestamps): the
    same consumer, budget outcome, and fault plan produce byte-identical
    {!provenance_to_string} output, which chaos tests assert. *)

type rung =
  | Tailored  (** retired: the §2.5 LP; {!serve} never returns it *)
  | Geometric_remap
  | Geometric_raw

(** Why a rung was abandoned. *)
type reason =
  | Solver of Lp.Solver_error.t
  | Uncertified of string  (** the {!Check.Invariants} rule that failed *)

type attempt = { attempted : rung; reason : reason }

type provenance = {
  rung : rung;  (** the rung actually served *)
  alpha : Rat.t;
  n : int;
  attempts : attempt list;  (** abandoned rungs, in descent order *)
  pivots_spent : int;  (** simplex pivots across all exhausted solves *)
  peak_bits : int;  (** largest coefficient bit-size across them *)
  checks : string list;  (** invariant rules certified on the release *)
}

type served = {
  mechanism : Mech.Mechanism.t;
  loss : Rat.t;  (** the consumer's minimax loss of [mechanism] *)
  provenance : provenance;
}

exception Certification_failed of { rung : string; rule : string }
(** The bottom rung's [G(n,α)] failed re-verification — impossible
    unless [lib/mech] or [lib/check] is broken, and typed so even that
    breakage cannot release an uncertified matrix. *)

val serve : ?budget:Lp.Budget.t -> alpha:Rat.t -> Consumer.t -> served
(** Walk the ladder; always returns a certified mechanism on
    [Geometric_remap] or [Geometric_raw].
    @raise Invalid_argument on a bad [alpha], or when the consumer's
    range has [n < 1]
    @raise Certification_failed if even raw [G(n,α)] fails checks *)

val rung_to_string : rung -> string
(** ["tailored"], ["geometric+remap"], ["geometric"]. The first is a
    retired value: no release carries it. *)

val provenance_to_string : provenance -> string
(** Single-line deterministic rendering, for logs and chaos tests. *)

val provenance_to_json : provenance -> Obs.Json.t
