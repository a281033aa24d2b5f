(** Crash-safe checksummed disk frames.

    The one framing format every durable byte in this tree goes
    through: a [DPST] magic, a format version, the payload length, the
    payload itself, and an MD5 trailer over everything before it. The
    artifact store ({!Store}) wraps compiled mechanisms in it; the
    session service ({!Session}) wraps privacy-budget ledger
    checkpoints in it. Payloads self-describe (a JSON ["format"] tag),
    so the two never mistake each other's files: the frame layer
    guarantees integrity, the payload layer guarantees meaning.

    The version field belongs to the payload's owner, who passes it to
    every call: the store and the session checkpoints version their
    payloads apart, so retiring one's old files never strands the
    other's.

    Writes are atomic and durable: payload to a pid-suffixed temp
    file, [fsync], [rename] into place, [fsync] the directory. A
    reader can never observe a half-written frame — only the old
    bytes, the new bytes, or a temp file it ignores. *)

type error =
  | Corrupt of string  (** truncated, length mismatch, checksum mismatch *)
  | Bad_magic  (** not a frame of any version *)
  | Stale_version of { got : int }  (** a version other than the one asked for *)
  | Io of string  (** filesystem refusal *)

val error_to_string : error -> string

val encode : version:int -> string -> string
(** Wrap a payload in a frame: magic, version, length, payload, MD5. *)

val decode : version:int -> string -> (string, error) result
(** Recover the payload of a frame written at [version], checking
    truncation before magic, magic before version, version before
    checksum — so a foreign, older or future file reports what it is,
    not a nonsense digest mismatch. *)

val write : version:int -> path:string -> payload:string -> (unit, error) result
(** Atomically persist [encode ~version payload] at [path]: temp file, fsync,
    rename, directory fsync. On any error the temp file is removed
    and [path] still holds its previous bytes (or nothing). *)

val read : version:int -> path:string -> (string, error) result
(** Read and {!decode} the frame at [path]. *)

val is_temp : string -> bool
(** Does a basename carry the [.tmp.<pid>] infix a killed writer
    leaves behind? Such files were never renamed into place. *)

val fsync_dir : string -> (unit, error) result
(** Flush directory metadata so a completed rename survives a crash. *)
