(** Compiled mechanisms: solve once, certify once, sample in O(1).

    A {!t} is what the engine caches per distinct consumer: the served
    mechanism from the {!Minimax.Serve} degradation ladder, the
    {!Check.Invariants} certificates earned on release, and one
    {!Prob.Discrete.Alias} table per mechanism row so answering a query
    costs O(1) per sample instead of an O(n)-rational CDF walk.

    The alias tables sample the float image of each exact row; the
    released matrix itself (and everything certified about it) stays
    exact. Sampling therefore matches the exact sampler's distribution
    to float precision — a property the frequency tests pin down — but
    not its draw-by-draw stream, which is why {!draws} keeps the exact
    path for single draws (preserving historical seed streams, e.g.
    [dpopt geometric --samples 1]). *)

type sampler
(** Per-row alias tables plus the exact mechanism they were built
    from. *)

val sampler_of_mechanism : Mech.Mechanism.t -> sampler
(** Build all [n+1] row tables; O(n²) once. *)

val sampler_mechanism : sampler -> Mech.Mechanism.t

val draw : sampler -> input:int -> Prob.Rng.t -> int
(** One O(1) alias draw from row [input].
    @raise Invalid_argument on an out-of-range input. *)

val draws : sampler -> input:int -> count:int -> Prob.Rng.t -> int array
(** [count] draws. [count = 1] takes the exact-rational CDF path
    ({!Mech.Mechanism.sample}) so single-sample callers see exactly the
    stream they saw before compiled samplers existed; [count >= 2] uses
    the alias table. @raise Invalid_argument when [count < 1]. *)

type t = {
  key : string;  (** the {!Request.canonical_key} this artifact serves *)
  served : Minimax.Serve.served;  (** mechanism, loss, and provenance *)
  certificates : Check.Invariants.certificate list;
      (** replayable certificates for every invariant re-verified on
          the release — non-empty by construction *)
  sampler : sampler;
}

exception Uncertified of { key : string; rule : string }
(** {!compile} found a released mechanism failing re-certification —
    impossible unless [lib/core] or [lib/check] is broken; typed so
    even that breakage cannot put an uncertified artifact in a cache. *)

val compile : ?budget:Lp.Budget.t -> alpha:Rat.t -> key:string -> Minimax.Consumer.t -> t
(** Run the serve ladder, re-verify the release through
    {!Check.Invariants.audit_release} (row-stochasticity, α-DP and
    Theorem-2 derivability), and build the alias tables.
    Emits an ["engine.compile"] span.
    @raise Uncertified if any re-verification fails *)

val of_matrix :
  key:string ->
  alpha:Rat.t ->
  loss:Rat.t ->
  provenance:Minimax.Serve.provenance ->
  Rat.t array array ->
  t
(** Admit an externally reconstituted release (e.g. one deserialized
    from a disk artifact store) through the exact audit {!compile}
    applies: the raw matrix is re-verified via
    {!Check.Invariants.audit_release}, becomes a mechanism only once
    that audit has certified it row-stochastic, and gets fresh alias
    tables, so the returned artifact carries freshly replayed
    certificates rather than trusted ones. [loss] and [provenance] are
    taken as given; the caller checks the loss. Never bumps
    ["engine.compiles"] — no solve happened.
    @raise Uncertified if any re-verification fails *)

val rung : t -> Minimax.Serve.rung
val loss : t -> Rat.t
