(** Source lint: the per-file rules of [dplint check] ({!Analysis.check}).

    Scans OCaml sources for patterns that undermine the repository's
    exactness guarantees. Every rule is a pattern over the code tokens
    of a file's {!Modinfo.t}, so comments, string literals (quoted
    [{|…|}] ones included) and character literals never trip it. This
    is the one list of the rules:

    - [lint/obj-magic] — any use of [Obj.magic];
    - [lint/catch-all] — a bare [try … with _ ->] handler, which
      silently swallows arithmetic errors ([match … with _ ->] is
      fine and not flagged);
    - [lint/float-eq] — [=] / [<>] with a float-literal operand
      ([0.5], [1e-9], [- 0.5]): exactness bugs hide behind such
      comparisons. Binding positions are exempt: the first [=] of a
      line led by [let]/[and], optional-argument defaults
      [?(eps = 1e-9)], and record fields [{ x = 0.5] / [; x = 0.5];
    - [lint/unaudited-mechanism] — [Mech.Mechanism.unsafe_of_audited]
      anywhere outside [lib/engine/compiled.ml], the one caller that
      audits the matrix first (and [lib/mech/mechanism.ml], which
      defines it);
    - [lint/print-stdout] ({!Lib} scope) — direct stdout printing
      ([print_string], [print_endline], …, [Printf.printf],
      [Format.printf]), which bypasses the injectable sinks of
      [lib/report] and the recorders of [lib/obs] (files under a
      [report/] or [obs/] path component are exempt — they are the
      sinks);
    - [lint/unix-write] — a raw [Unix.write] / [Unix.single_write] /
      [..._substring] anywhere outside [lib/server/framing.ml], the one
      module that handles short writes, [EAGAIN], dead peers and the
      injected ["server.write"] fault for the whole tree;
    - [lint/assert-false] ({!Lib} scope) — [assert false], which
      crashes without a witness; a typed error
      ([Resilience.Solver_error.fail]) carries one, and a genuinely
      unreachable arm is exempt when a well-formed
      [(* analysis: invariant — <why> *)] waiver ({!Modinfo}) covers
      its line: on the same line, or standalone on the line above;
    - [lint/missing-mli] ({!Lib} scope, applied by the tree driver) —
      a module without an interface file, leaving its invariants
      unpublished.

    The tree driver also reports a root that is not a directory as
    [lint/missing-dir]. Every finding is a {!Check.Diagnostic.t} with a
    [Source_line] location; a rule reports a line at most once. *)

type scope =
  | Lib  (** a root whose basename is ["lib"]: every rule *)
  | Other  (** any other root: no print-stdout, assert-false or missing-mli *)

val scan : scope:scope -> Modinfo.t -> Check.Diagnostic.t list
(** Run the token rules over one lexed file. The file's path names the
    findings and decides the per-file exemptions above. Findings come
    grouped by rule, in the order listed above, each group in line
    order. *)

val missing_mli : string -> Check.Diagnostic.t
(** The [lint/missing-mli] finding for a [.ml] path. *)

val missing_dir : string -> Check.Diagnostic.t
(** The [lint/missing-dir] finding for a root. *)
