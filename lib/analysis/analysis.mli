(** The source checker behind [dplint check].

    {!check} walks each root once and lexes each [.ml] under it once,
    into a {!Modinfo.t}. Over those symbol tables it runs:
    - the {!Lint} rules, over every root, with the {!Lint.Lib} scope
      for a root whose basename is [lib];
    - the three cross-module passes — {!Passes.domain_safety},
      {!Passes.float_taint} and {!Passes.determinism} — plus waiver
      hygiene, over a {!Modgraph.t} of the roots whose basename is
      [lib] or [bin] only ([test/] and [bench/] spawn domains freely,
      and [test/fixtures/analysis] holds bad waivers on purpose).

    The result is one sorted list of {!Check.Diagnostic.t}s. There is
    no accepted-findings baseline and no severity level: the tree
    checks clean, so any finding is a regression, and [dplint check]
    exits 1 iff there is one. *)

module Lexer = Lexer
module Lint = Lint
module Modinfo = Modinfo
module Modgraph = Modgraph
module Passes = Passes

type config = {
  roots : string list;  (** directories to check *)
  core_dirs : string list;  (** the exact core, for float taint *)
  serve_roots : string list;
      (** directories or files whose closure is the serve path *)
  clock_exempt : string list;
      (** directories allowed to read the wall clock (the injectable
          clock's own home) *)
}

val default_config : config
(** Checks [lib], [bin], [test], [bench] and [examples]; exact core =
    [lib/bigint], [lib/rational], [lib/linalg], [lib/lp], [lib/mech];
    serve roots = [lib/server], [lib/engine], [lib/store],
    [lib/session], [lib/minimax_dp], [bin/dpserved.ml]; clock-exempt =
    [lib/obs]. *)

type outcome = {
  diagnostics : Check.Diagnostic.t list;
      (** every finding, sorted by (file, line, rule, message) and
          deduplicated *)
  files : int;  (** .ml files checked *)
}

val check : config -> outcome

val graph : string list -> Modgraph.t
(** The module graph over the given roots, walked and lexed as
    {!check} does it (without the pass-scope filter). *)

val to_json : outcome -> Check.Json.t
(** [{"tool": "dplint", "ok": …, "files": …, "diagnostics": […]}] with
    each diagnostic in {!Check.Diagnostic.to_json} form. *)
