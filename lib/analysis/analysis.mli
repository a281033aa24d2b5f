(** Cross-module static analysis over the serving tree.

    Three passes — {!Passes.domain_safety}, {!Passes.float_taint} and
    {!Passes.determinism} — run over a {!Modgraph.t} built from the
    configured roots, plus waiver hygiene over every scanned file. The
    result is a list of {!Check.Diagnostic.t}s. There is no
    accepted-findings baseline: [lib/] and [bin/] analyze clean, so any
    error is a regression.

    The exit-code contract lives one level up (in [dplint analyze]):
    exit 1 iff at least one error-severity diagnostic is found. *)

module Lexer = Lexer
module Lint = Lint
module Modinfo = Modinfo
module Modgraph = Modgraph
module Passes = Passes

type config = {
  roots : string list;  (** directories to scan, e.g. [["lib"; "bin"]] *)
  core_dirs : string list;  (** the exact core, for float taint *)
  serve_roots : string list;
      (** directories or files whose closure is the serve path *)
  clock_exempt : string list;
      (** directories allowed to read the wall clock (the injectable
          clock's own home) *)
}

val default_config : config
(** Scans [lib] and [bin]; exact core = [lib/bigint], [lib/rational],
    [lib/linalg], [lib/lp], [lib/mech]; serve roots = [lib/server],
    [lib/engine], [lib/store], [lib/session], [lib/minimax_dp],
    [bin/dpserved.ml]; clock-exempt = [lib/obs]. *)

type outcome = {
  diagnostics : Check.Diagnostic.t list;
      (** every finding, sorted by (file, line, rule) and deduplicated *)
  errors : int;  (** error-severity count *)
  warnings : int;
  files : int;  (** .ml files analyzed *)
}

val run : config -> outcome

val to_json : outcome -> Check.Json.t
(** [{"files": …, "errors": …, "warnings": …, "diagnostics": […]}] with each diagnostic in
    {!Check.Diagnostic.to_json} form. *)
