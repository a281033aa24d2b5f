(** Crash-safe persistent artifact store with verified warm restart.

    A store is a flat directory of compiled-release artifacts keyed by
    {!Engine.Request.canonical_key}: each entry serializes the exact
    mechanism matrix, its minimax loss, the full serve-ladder
    provenance, and the {!Check.Invariants} certificates earned at
    compile time. Restarting processes (or a whole fleet sharing one
    directory) pay a disk read instead of a simplex solve.

    Two policies make the store safe to trust with served bytes:

    {b Crash-safe writes.} An entry is written to a temporary file in
    the same directory, [fsync]ed, and atomically [rename]d into
    place (the directory is fsynced after the rename); readers never
    observe a half-written entry, and a mid-write kill leaves only a
    temp file that {!open_dir}/{!reopen} sweep away. On disk every
    entry is a length-prefixed checksum frame: magic, format version,
    payload length, payload, and an MD5 digest of everything before
    it.

    {b Verify-on-load — trust the math, not the file.} A well-framed
    entry is still not served until its release replays through
    {!Check.Invariants} (via {!Engine.Compiled.of_matrix}): the
    deserialized matrix must have the key's size and re-certify
    row-stochasticity, α-DP and Theorem-2 derivability, the freshly
    earned certificates must equal the stored ones byte for byte, the
    recomputed minimax loss must equal the stored loss, and the
    entry's canonical key must match both its filename and the
    request. Any mismatch is a typed {!error} and the caller falls
    through to compiling — never a crash, never a wrong byte.

    Fault sites (see {!Resilience.Fault}): ["store.read"] (tripped at
    probe time; degrades to a miss), ["store.write"] (tripped at
    write-back time; the entry is simply not persisted), and
    ["store.verify"] (tripped during load verification; the entry is
    refused as {!Uncertified}).

    Counters: ["store.hits"], ["store.misses"], ["store.corrupt"]
    (every typed load-path error), ["store.writes"]; rolling latency
    window ["store.probe.latency"] over every probe (hit, miss or
    error).

    Domain-safe: all operations serialize behind an internal mutex, so
    the engine's coordinator may probe while another domain (e.g. a
    SIGHUP handler) calls {!reopen}. *)

module Frame = Frame
(** The raw framing layer (magic, version, length, payload, MD5;
    atomic temp-file writes), exposed so other durable state — the
    session service's privacy-budget ledger checkpoints — shares the
    store's crash-safety discipline without reimplementing it. *)

type t

(** Why an entry (or the directory) could not be used. Every load-path
    failure is one of these — deserialization never raises. *)
type error =
  | Corrupt of string
      (** truncated frame, checksum mismatch, unparseable payload,
          or a payload inconsistent with itself (key/filename/
          certificate mismatch) *)
  | Bad_magic  (** the file is not a dpstore frame at all *)
  | Stale_version of { got : int }
      (** a frame version this build does not speak *)
  | Uncertified of { rule : string }
      (** the release failed {!Check.Invariants} replay; [rule] names
          the check *)
  | Io of string  (** filesystem-level failure (or a read-only store
                      asked to write) *)

val error_to_string : error -> string
(** Deterministic one-line rendering, e.g.
    ["corrupt: checksum mismatch"]. *)

val format_version : int
(** The artifact version this build writes into its frames and accepts
    on load; any other reads as {!Stale_version} and falls through to
    a compile, whose write-back replaces the entry. The store's own,
    apart from the session checkpoints' (which share {!Frame} but not
    this number). *)

(** {1 Lifecycle} *)

val open_dir : ?readonly:bool -> string -> (t, error) result
(** Open (creating it unless [readonly]) an artifact directory and
    sweep stale temp files left by killed writers. [readonly] stores
    refuse {!write} with [Io] and never modify the directory. *)

val reopen : t -> (unit, error) result
(** Re-validate the directory and sweep stale temp files — the SIGHUP
    handshake. Entries written by other processes since {!open_dir}
    become visible to subsequent probes (they always were; probes hit
    the filesystem), so this is primarily a health check plus sweep. *)

val dir : t -> string
val readonly : t -> bool

(** {1 Entries} *)

val write : t -> Engine.Compiled.t -> (unit, error) result
(** Persist one artifact atomically under its canonical key,
    fsync-before-rename. Degraded releases (non-empty provenance
    [attempts]) are skipped with [Ok ()]: a degraded rung records this
    process's budget pressure, not a property of the consumer, and
    must not become durable. Bumps ["store.writes"] on a real write. *)

val load : t -> key:string -> (Engine.Compiled.t option, error) result
(** [Ok None] when no entry exists for [key]; [Ok (Some c)] only after
    the full verify-on-load policy above passed, with [c] carrying the
    freshly replayed certificates. Counts hits / misses / corrupt. *)

val entry_path : t -> key:string -> string
(** Where an entry for [key] lives (whether or not it exists):
    [dir/<md5(key)>.dpa]. Exposed for tests and fixtures. *)

val keys : t -> (string list, error) result
(** Canonical keys of every well-framed entry, sorted; entries whose
    frame cannot even be opened are skipped (a later {!load} gives the
    typed error). *)

val load_all : t -> Engine.Compiled.t list * (string * error) list
(** Verify-and-load every entry, in sorted key order — the [--preload]
    path. Returns the verified artifacts plus a (filename, error) list
    for every entry that was refused. *)

(** {1 Accounting} *)

type stats = { hits : int; misses : int; corrupt : int; writes : int }

val stats : t -> stats
(** Local mirror of the ambient counters, so callers can report
    without a recorder installed. *)

(** {1 Engine integration} *)

val tier : t -> Engine.tier
(** The store as the engine's second cache tier: probe is {!load} on
    the request's canonical key with every error swallowed into a
    miss (the typed error is still counted and recorded), and
    write-back is {!write} with failures swallowed. This is what makes
    the engine's tiered resolve total. *)
