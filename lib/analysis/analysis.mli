(** Cross-module static analysis over the serving tree.

    Three passes — {!Passes.domain_safety}, {!Passes.float_taint} and
    {!Passes.determinism} — run over a {!Modgraph.t} built from the
    configured roots, plus waiver hygiene over every scanned file. The
    result is a list of {!Check.Diagnostic.t}s, optionally reduced by
    an accepted-findings {!Baseline.t} so the wall starts green and
    only ratchets.

    The exit-code contract lives one level up (in [dplint analyze]):
    exit 1 iff at least one error-severity diagnostic survives
    baseline subtraction. *)

module Lexer = Lexer
module Lint = Lint
module Modinfo = Modinfo
module Modgraph = Modgraph
module Passes = Passes
module Baseline = Baseline

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
      (** surviving findings plus stale-baseline warnings, sorted by
          (file, line, rule) *)
  errors : int;  (** error-severity count after subtraction *)
  warnings : int;
  suppressed : int;  (** findings absorbed by the baseline *)
  files : int;  (** .ml files analyzed *)
}

val raw : config -> Check.Diagnostic.t list
(** All findings with no baseline applied, sorted and deduplicated —
    the input to [Baseline.of_diagnostics] when (re)writing a
    baseline. *)

val run : ?baseline:Baseline.t -> config -> outcome

val to_json : outcome -> Check.Json.t
(** [{"files": …, "errors": …, "warnings": …, "suppressed": …,
    "diagnostics": […]}] with each diagnostic in
    {!Check.Diagnostic.to_json} form. *)
