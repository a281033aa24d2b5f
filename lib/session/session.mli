(** Multi-level release as a stateful service (ROADMAP item 4).

    The paper's Algorithm 1 — the [T_{α,β} = G(n,α)⁻¹·G(n,β)] cascade
    that serves one correlated draw at many privacy levels — turned
    from a batch computation into long-lived serving state. Consumers
    {!subscribe} to a query (a result range [n] and a true [input]) at
    a privacy level α; subscribers sharing the canonical group key
    {!group_key} are grouped into one cascade plan over their strictly
    increasing level ladder ({!Minimax.Multi_level.make_plan}). Each
    {!release} mints {e one} epoch: a single correlated draw through a
    deterministic split stream, every subscriber handed its own rung —
    so colluding subscribers learn nothing beyond the least-private
    release (Lemma 4), which every epoch's {!Certificate} proves
    replayably.

    {b Budgets.} Each subscriber carries a cumulative privacy-budget
    ledger in exact ℚ: the product of the α's of its released epochs
    (α-DP composes multiplicatively, so the product is the
    subscriber's cumulative privacy level). A subscription may declare
    a budget floor [0 < b < 1]; an epoch that would push the product
    below the floor is refused for that subscriber with a typed
    [budget_exhausted] — the draw still serves everyone else. Floors
    only ever tighten: a re-subscribe cannot launder a spent ledger.

    {b Determinism.} The epoch-[e] draw for a group is a pure function
    of [(seed, group key, e)] — the [e]-th sequential
    {!Prob.Rng.split} of a generator derived from the seed and the
    key ({!epoch_stream}) — never of worker counts, connection
    interleavings, or restarts. Replaying the stream reproduces the
    served bytes exactly.

    {b Durability.} With a checkpoint path, ledgers and epoch counters
    are persisted after every mutation as a {!Store.Frame} — the same
    crash-safe atomic checksummed framing the artifact store uses —
    and verified on load, so a warm restart resumes budgets with zero
    double-spend and resumes each group's split chain where it
    stopped. Subscriptions themselves are connection-scoped liveness
    and deliberately {e not} persisted: after a restart every ledger
    is intact but inactive until its consumer re-subscribes.

    Fault sites: ["session.epoch"] (tripped at epoch mint; the
    release is refused before the chain advances, surviving groups
    and later epochs are byte-identical) and ["session.ledger"]
    (tripped at checkpoint write; serving continues, durability
    degradation is counted). Counters: ["session.subscribes"],
    ["session.unsubscribes"], ["session.detached"],
    ["session.epochs"], ["session.served"],
    ["session.refused.budget"], ["session.checkpoints"],
    ["session.checkpoint.failed"]; rolling window
    ["session.epoch.latency"].

    Not domain-safe: a session table belongs to one event-loop domain,
    like the server's connection records. *)

module Certificate = Certificate

type t

(** One subscriber's state, as reported by {!subscribe},
    {!unsubscribe} and {!ledger}. *)
type view = {
  v_sub : string;
  v_group : string;
  v_level : Rat.t;  (** the subscription's α *)
  v_levels : Rat.t list;  (** the group's current active ladder *)
  v_epoch : int;  (** epochs the group has minted so far *)
  v_spent : Rat.t;  (** ∏ α over released epochs; starts at 1 *)
  v_floor : Rat.t option;  (** the declared budget floor, if any *)
  v_served : int;
  v_refusals : int;
  v_active : bool;
}

(** What one subscriber got out of an epoch. *)
type outcome =
  | Served of { level : Rat.t; value : int; spent : Rat.t; floor : Rat.t option }
  | Refused of { level : Rat.t; spent : Rat.t; floor : Rat.t }
      (** the ledger refused: [spent·level] would fall below [floor] *)

(** One minted epoch: the correlated draw, its certificate, and every
    active subscriber's outcome (sorted by subscriber name). *)
type release = {
  r_group : string;
  r_epoch : int;
  r_levels : Rat.t array;
  r_values : int array;  (** one rung per level, least-private first *)
  r_certificate : Certificate.t;
  r_outcomes : (string * outcome) list;
}

(** Why a {!release} minted nothing. *)
type refusal =
  | Rejected of string  (** no such group, no active subscribers, … *)
  | Faulted of string  (** an injected fault; nothing was drawn or charged *)

val group_key : n:int -> input:int -> string
(** The canonical session group key, ["n=<n>;i=<input>"]: subscribers
    agreeing on it share one cascade. *)

val epoch_stream : seed:int -> group:string -> epoch:int -> Prob.Rng.t
(** The generator epoch [e] of a group draws from: the [e]-th
    sequential split of [Rng.of_int] over a digest of [(seed, group)].
    A pure function of its arguments — this is the whole determinism
    contract, exposed so tests and benches replay served bytes. *)

val create : ?seed:int -> ?checkpoint:string -> unit -> (t, string) result
(** A fresh session table. With [checkpoint], the path is used for
    durable ledger frames; if it already holds one, ledgers and epoch
    counters are restored from it — after verification (frame
    checksum, format tag, canonical group keys, levels and spends in
    range, floors respected, matching [seed]) — with every
    subscription inactive. A checkpoint that fails verification is a
    typed refusal to start, never a silent reset. *)

val seed : t -> int

val live : t -> int * int
(** [(groups tracked, active subscriptions)] — the live gauges behind
    [op=stats]. *)

val subscribe :
  t ->
  sub:string ->
  n:int ->
  input:int ->
  level:Rat.t ->
  ?budget:Rat.t ->
  unit ->
  (view, string) result
(** Add (or revive) subscriber [sub] in group [(n, input)] at [level].
    A fresh subscriber starts a ledger at 1; a returning subscriber
    keeps its spent ledger (that is the point). Re-subscribing while
    active is idempotent at the same level and an error at a different
    one (unsubscribe first); an inactive ledger may re-subscribe at
    any level. [budget] sets (or tightens — never loosens) the floor.
    [n] must lie in [{1..Engine.Request.max_n}]. *)

val unsubscribe : t -> sub:string -> n:int -> input:int -> (view, string) result
(** Deactivate the subscription; the ledger is retained durably so a
    later re-subscribe cannot double-spend. *)

val ledger : t -> sub:string -> n:int -> input:int -> (view, string) result
(** Report the subscriber's ledger without changing anything. *)

val detach : t -> sub:string -> group:string -> unit
(** The subscriber's connection died: stop delivering (deactivate) but
    keep the ledger, exactly as {!unsubscribe} — minus the error on an
    unknown subscription, because a dying connection races everything. *)

val release : t -> n:int -> input:int -> (release, refusal) result
(** Mint one epoch for the group: advance the split chain, draw the
    correlated cascade once, certify it, charge each active
    subscriber's ledger (refusing over-budget subscribers
    individually), checkpoint, and return every outcome. *)

val groups : t -> string list
(** The tracked group keys, sorted — the table's deterministic
    iteration order. *)
