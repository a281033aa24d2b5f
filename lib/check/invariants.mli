(** The domain analyzer: exact certification of the linear invariants
    every mechanism in this repository must uphold.

    Each check consumes a raw [Rat.t array array] — deliberately {e not}
    {!Mech.Mechanism.t}, whose constructor already rejects some invalid
    inputs — and returns a {!report}: either a list of diagnostics with
    exact rational witnesses, or a replayable {!certificate}.

    The checks recompute everything from first principles (independent
    Gaussian elimination, explicit inequality scans) rather than
    trusting [lib/mech]'s own predicates, so they can serve as an
    independent audit of that code. *)

type certificate = {
  cert_rule : string;
  params : (string * string) list;
      (** everything needed to replay the check: dimensions, α, β, and
          an MD5 digest of the exact matrix text. *)
  constraints_checked : int;  (** number of atomic inequalities verified *)
  tight : (string * string) list;
      (** the binding constraint: where the minimum slack is attained
          and its exact value — re-derivable by hand. *)
}

type report = {
  rule : string;
  diagnostics : Diagnostic.t list;  (** empty iff the invariant holds *)
  certificate : certificate option;  (** [Some _] iff [diagnostics = []] *)
}

val passed : report -> bool
val all_passed : report list -> bool

val matrix_digest : Rat.t array array -> string
(** MD5 of the canonical exact-text rendering; ties certificates to the
    matrix they certify. *)

(** {1 Per-invariant checks} *)

val row_stochastic : Rat.t array array -> report
(** Squareness, entrywise non-negativity, exact unit row sums
    (§2.2). Witnesses: the offending cell value or row sum. *)

val alpha_dp : alpha:Rat.t -> Rat.t array array -> report
(** Definition 2: [α·x(i,r) <= x(i+1,r)] and [α·x(i+1,r) <= x(i,r)]
    for all adjacent inputs. Certificate reports the strongest
    (largest) α the matrix supports. @raise Invalid_argument unless
    [0 < alpha < 1]. *)

val derivability : alpha:Rat.t -> Rat.t array array -> report
(** Theorem 2's syntactic condition: every column triple satisfies
    [(1+α²)·x2 − α·(x1+x3) >= 0], plus Lemma 2's boundary inequalities
    [x_0 >= α·x_1] and [x_n >= α·x_{n−1}]. *)

val factorization : alpha:Rat.t -> Rat.t array array -> report
(** Constructive cross-check of {!derivability}: compute
    [T = G(n,α)⁻¹·M] by independent Gaussian elimination, verify [T] is
    row-stochastic, and replay the product [G·T = M] exactly. *)

val monotone_loss : name:string -> n:int -> (int -> int -> Rat.t) -> report
(** Well-formedness of a consumer loss on [{0..n}²]: non-negative,
    zero on the diagonal, and non-decreasing in [|i − r|] for every
    fixed [i] (§2.3). *)

val lemma3_transition : n:int -> alpha:Rat.t -> beta:Rat.t -> report
(** Lemma 3: [T_{α,β} = G(n,α)⁻¹·G(n,β)] is row-stochastic for
    [α <= β], and the product replays to [G(n,β)] exactly.
    @raise Invalid_argument unless [0 < α <= β < 1]. *)

(** {1 Aggregate entry points} *)

val check_mech : ?alpha:Rat.t -> Rat.t array array -> report list
(** {!row_stochastic}, then (when [alpha] is given) {!alpha_dp},
    {!derivability}, and {!factorization}. *)

val check_derivable : alpha:Rat.t -> Rat.t array array -> report list
(** {!row_stochastic}, {!derivability}, {!factorization}. *)

val audit_release :
  alpha:Rat.t -> Rat.t array array -> (certificate list, report) result
(** The audit every served release passes, at serve time and again on
    each load from a disk store: {!row_stochastic}, then {!alpha_dp},
    then {!derivability}. The matrix is hashed once for all three
    certificates, each byte-identical to the standalone rule's.
    [Ok certificates] in that order, or [Error r] with the first
    failing report; rules after a failure are not run.
    @raise Invalid_argument unless [0 < alpha < 1] and [m] has at
    least two rows (n >= 1, as every request's). *)

(** {1 Serialization} *)

val certificate_to_json : certificate -> Json.t
val report_to_json : report -> Json.t

val summary_to_json : report list -> Json.t
(** [{"tool": "dplint", "ok": …, "reports": […]}]. *)

val pp_report : Format.formatter -> report -> unit
