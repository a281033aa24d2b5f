(** Per-module symbol table.

    One [t] summarizes everything the cross-module passes need to know
    about a single [.ml] file: which modules it references (for the
    dependency graph), its top-level mutable state and mutable record
    fields, which token spans are lexically guarded by a mutex, where
    [Domain.spawn] is called, every float-flavoured token, and the
    analysis waivers its comments carry.

    {2 Guarded regions}

    A token is {e guarded} when it sits inside one of these lexical
    regions:
    - the argument span of a [Mutex.protect] call (from the call to
      the first token at a shallower bracket depth, bounded by the
      next top-level item);
    - the argument span of a call to a {e guard helper} — a top-level
      binding whose body starts with [Mutex.protect], e.g.
      [let locked f = Mutex.protect lock f];
    - a [Mutex.lock] … [Mutex.unlock] span: from a lock to the last
      unlock before the next lock (or the end of the item), which
      keeps multi-exit critical sections like early-unlock error arms
      inside one region.

    This is a lexical approximation, deliberately biased against false
    positives: code between an unlock and the next lock of the same
    item is correctly outside, but a guard region never ends early.

    {2 Waivers}

    A waiver is a comment of the form
    [(* analysis: <tag> — <why> *)] with
    [<tag>] one of [domain-local], [float-ok], [order-insensitive],
    [clock-ok] (read by the passes) or [invariant] (read by the lint's
    [assert false] rule). It covers its own line(s) and the next code line; a
    standalone waiver placed directly above a [let]/[type]/[module]
    item covers that whole item (so one waiver on a type declaration
    covers every mutable field it declares, and one above a binding
    covers the binding's body). A waiver whose [<why>] is missing or
    vacuous is {e bare} and is itself reported; bare and unknown-tag
    waivers never suppress anything. *)

type mutable_kind = Ref | Table | Buf | Arr | Queue_like

val kind_to_string : mutable_kind -> string

type global = {
  gname : string;
  gkind : mutable_kind;
  gline : int;
  gtok : int;  (** token index of the binding name *)
}

type field = { fname : string; fline : int }

type waiver = {
  wtag : string;
  wwhy : string;
  wline : int;
  wfrom : int;  (** first covered line *)
  wto : int;  (** last covered line *)
}

type call = { chain : string list; fn : string; cline : int }
(** A qualified lowercase access [A.B.fn], e.g. [Hashtbl.fold] or
    [Engine.Seeder.stream]. *)

type t = {
  path : string;
  modname : string;  (** capitalized basename *)
  toks : Lexer.token array;
  guarded : bool array;  (** same length as [toks] *)
  refs : (string list * int) list;  (** capitalized chains + line *)
  calls : call list;
  globals : global list;  (** top-level mutable state *)
  fields : field list;  (** [mutable] record fields *)
  waivers : waiver list;  (** well-formed waivers only *)
  malformed_waivers : (string * string * int) list;
      (** (rule-suffix, message, line): bare or unknown-tag waivers *)
  spawn_lines : int list;  (** [Domain.spawn] call sites *)
  float_sites : (string * int) list;
      (** float literals, [Float.*] calls, [*_of_float]/[float_of_*],
          float operators — token text + line *)
}

val valid_tags : string list

val module_name_of_path : string -> string
(** ["lib/obs/obs.ml"] → ["Obs"] *)

val of_source : path:string -> string -> t
val of_file : string -> t

val waived : t -> tag:string -> line:int -> bool
(** Is [line] covered by a well-formed waiver carrying [tag]? *)
