(** Compiled mechanisms: solve once, certify once, sample in O(1).

    A {!t} is what the engine caches per distinct consumer: the served
    mechanism from the {!Minimax.Serve} degradation ladder, the
    {!Check.Invariants} certificates earned on release, and one exact
    {!Mech.Sampler} table per mechanism row, so answering a query costs
    O(1) per sample. The tables sample the certified rows themselves,
    in integers; a draw of any count is the same stream
    {!Mech.Mechanism.sample} gives, draw for draw. *)

type sampler
(** One {!Mech.Sampler} table per mechanism row. *)

val sampler_of_mechanism : ?key:string -> Mech.Mechanism.t -> sampler
(** Build and check all [n+1] row tables; O(n²) once.
    @raise Uncertified (rule ["exact-sampler"], under [key], default
    [""]) if a table fails to reproduce its row — impossible for a
    row-stochastic mechanism unless {!Mech.Sampler} is broken. *)

val draws : sampler -> input:int -> count:int -> Prob.Rng.t -> int array
(** [count] exact draws from row [input], one path for every count.
    @raise Invalid_argument when [count < 1] or [input] is out of
    range. *)

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
    Theorem-2 derivability), and build the exact sampler tables.
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
    that audit has certified it row-stochastic, and gets fresh sampler
    tables, so the returned artifact carries freshly replayed
    certificates rather than trusted ones. [loss] and [provenance] are
    taken as given; the caller checks the loss. Never bumps
    ["engine.compiles"] — no solve happened.
    @raise Uncertified if any re-verification fails *)

val rung : t -> Minimax.Serve.rung
val loss : t -> Rat.t
