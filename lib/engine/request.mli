(** Serving requests and their canonical cache keys.

    A request names a consumer — [(n, α, loss, side information)] — and
    a query against it: the true result to perturb and how many samples
    to draw. The consumer part determines which compiled mechanism can
    answer it; {!canonical_key} renders that part into a string under
    which the engine caches compiled artifacts.

    Canonicalization means distinct spellings of the same consumer
    share one cache entry (and therefore one LP solve):

    - side information is reduced to its member set: [>=0], [0-n] and
      an explicit list of all of [{0..n}] all collapse to [full], and
      member lists are sorted and deduplicated;
    - losses that coincide as functions on [{0..n}²] collapse:
      [deadzone:0], [capped:c] with [c >= n], and [asym:1,1] are all
      exactly [|i−r|] there and key as [absolute];
    - [α] is keyed by {!Rat.to_string}, which is already canonical
      (reduced fraction, normalized sign). *)

(** Loss function, by name — the engine needs a comparable description,
    not a closure, to key its cache. Mirrors the [dpopt --loss]
    grammar. *)
type loss_spec =
  | Absolute
  | Squared
  | Zero_one
  | Deadzone of int  (** zero within the band, linear beyond *)
  | Capped of int  (** [min cap |i−r|] *)
  | Asymmetric of Rat.t * Rat.t  (** per-unit over / under costs *)

(** Side information, by name. Mirrors the [dpopt --side] grammar. *)
type side_spec =
  | Full
  | At_least of int
  | At_most of int
  | Interval of int * int
  | Members of int list

type t = private {
  n : int;
  alpha : Rat.t;
  loss : loss_spec;
  side : side_spec;
  input : int;  (** the true result to perturb, in [{0..n}] *)
  count : int;  (** samples to draw, [>= 1] *)
}

val max_n : int
(** The wire cap on [n], 64: every served [n] builds [(n+1)²] exact
    cells inline. *)

val check_n : int -> (unit, string) result
(** The refusal for an [n] outside [{1..max_n}]. *)

val make :
  ?input:int ->
  ?count:int ->
  n:int ->
  alpha:Rat.t ->
  loss:loss_spec ->
  side:side_spec ->
  unit ->
  (t, string) result
(** Validated constructor (default [input 0], [count 1]):
    [1 <= n <= max_n], [0 < α < 1], [input ∈ {0..n}], [count >= 1],
    well-formed loss parameters, side information non-empty and within
    [{0..n}]. *)

(** {1 Wire protocol (v1)}

    The line grammar is versioned: every request line starts with
    [v=1], and unknown keys are typed rejections rather than silent
    drops. PROTOCOL.md documents the forward-compatibility policy. *)

val version : int
(** The protocol version this build speaks ([1]). *)

type wire = {
  id : string option;
      (** caller-chosen tag echoed on the response (1–64 chars of
          [[A-Za-z0-9._:-]]) *)
  seed : int option;  (** per-request determinism seed *)
  request : t;
}
(** A parsed request line: the consumer/query payload plus the
    transport-level envelope fields. *)

(** A session verb, parsed from an [op=subscribe | release |
    unsubscribe | ledger] line. Subscribers are named by [sub=] (same
    charset as [id=]); a group is named by its [(n, input)] pair;
    [alpha=] is the subscription's privacy level and the optional
    [budget=] its ledger floor. Semantic validation (ranges, ledger
    rules) lives in the session service — the parser checks syntax
    and per-verb allowed keys only. *)
type session_verb =
  | Subscribe of {
      sub : string;
      n : int;
      input : int;
      level : Rat.t;
      budget : Rat.t option;
    }
  | Release of { n : int; input : int }
  | Unsubscribe of { sub : string; n : int; input : int }
  | Ledger of { sub : string; n : int; input : int }

(** A parsed line: a serving query, the [op=stats] admin verb asking
    the server for its telemetry snapshot (which takes only the
    optional [id=] echo tag), or a session verb. *)
type parsed =
  | Query of wire
  | Stats of { id : string option }
  | Session of { id : string option; verb : session_verb }

type wire_error =
  | Unsupported_version of { got : string option }
      (** missing [v=] first key, or a version this build doesn't
          speak *)
  | Unknown_key of { key : string }
  | Malformed of { msg : string }  (** frame-level: not [key=value], duplicate key, bad [id] *)
  | Invalid of { msg : string }  (** field-level: bad value or failed {!make} validation *)

val id_rule : string
(** What an [id=] or [sub=] must be: ["1-64 chars of [A-Za-z0-9._:-]"]. *)

val valid_id : string -> bool

val wire_error_kind : wire_error -> string
(** Stable machine-readable tag: [unsupported_version], [unknown_key],
    [malformed], [invalid]. *)

val wire_error_to_string : wire_error -> string

val of_line : string -> (parsed, wire_error) result
(** Parse one request line of whitespace-separated [key=value] pairs:
    [v=1 id=q7 seed=42 n=6 alpha=1/2 loss=absolute side=full input=3
    count=1000]. [v] must come first and equal {!version}; [id], [seed],
    [input] and [count] are optional; losses are
    [absolute | squared | zero-one | deadzone:<w> | capped:<c> |
    asym:<over>,<under>]; side is
    [full | lo-hi | >=k | <=k | m1,m2,...]. The admin line
    [v=1 op=stats [id=...]] parses to {!Stats} and the session lines
    [v=1 op=subscribe|release|unsubscribe|ledger ...] parse to
    {!Session}; any other [op=] value, keys outside a verb's allowed
    set, or [sub=]/[budget=] on a query line, are typed rejections, as
    is an [n] above {!max_n} on a query or session line. *)

val to_line : ?id:string -> ?seed:int -> t -> string
(** Render in the {!of_line} grammar, [v=1] first (parses back to an
    equal request with the same envelope). *)

val session_to_line : ?id:string -> session_verb -> string
(** Render a session verb in the {!of_line} grammar (parses back to an
    equal verb with the same [id]). *)

val loss_spec_of_string : string -> (loss_spec, string) result
(** Parse the [loss=] value grammar on its own (shared with the
    [dpopt --loss] flag). *)

val side_spec_of_string : string -> (side_spec, string) result
(** Parse the [side=] value grammar on its own (shared with the
    [dpopt --side] flag). *)

val canonical_key : t -> string
(** The consumer part only — [input]/[count] never enter the key. Equal
    keys mean one cached solve serves both requests. *)

val loss_fn : t -> Minimax.Loss.t
val side_info : t -> Minimax.Side_info.t
val consumer : t -> Minimax.Consumer.t

val loss_spec_to_string : loss_spec -> string
val side_spec_to_string : side_spec -> string
