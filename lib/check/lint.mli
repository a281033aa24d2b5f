(** Source lint: the textual half of [dplint].

    Scans OCaml sources for patterns that undermine the repository's
    exactness guarantees, after stripping comments and string literals
    (so documentation cannot trip the scanner):

    - [lint/obj-magic] — any use of [Obj.magic];
    - [lint/catch-all] — a bare [try … with _ ->] handler, which
      silently swallows arithmetic errors ([match … with _ ->] is
      fine and not flagged);
    - [lint/float-eq] — [=] / [<>] comparison against a float
      literal: exactness bugs hide behind such comparisons
      (let-bindings, record fields, and optional-argument defaults
      are recognized and exempt);
    - [lint/missing-mli] — a [lib/] module without an interface file,
      leaving its invariants unpublished;
    - [lint/assert-false] — [assert false] in library code, which
      crashes without a witness; a typed error
      ([Resilience.Solver_error.fail]) carries one, and genuinely
      unreachable arms are exempt when a sibling comment (same or
      adjacent line, in the un-stripped source) cites the invariant;
    - [lint/print-stdout] — direct stdout printing ([print_string],
      [print_endline], …, [Printf.printf], [Format.printf]) in library
      code, which bypasses the injectable sinks of [lib/report] and the
      recorders of [lib/obs] (those two directories are exempt — they
      are the sinks);
    - [lint/unix-write] — a raw [Unix.write] /
      [Unix.single_write] / [..._substring] anywhere outside
      [lib/server/framing.ml], the one module that handles short
      writes, [EAGAIN], dead peers and the injected ["server.write"]
      fault for the whole tree;
    - [lint/unaudited-mechanism] — [Mech.Mechanism.unsafe_of_audited]
      anywhere outside [lib/engine/compiled.ml], the one caller that
      audits the matrix first (and [lib/mech/mechanism.ml], which
      defines it).

    The scanner is line-accurate: every finding is a
    {!Diagnostic.t} with a [Source_line] location. *)

val strip : string -> string
(** Replace (possibly nested) comments and string literals with
    spaces, preserving every newline so offsets keep their line
    numbers. Exposed for tests. *)

val scan_source :
  ?ban_stdout:bool ->
  ?ban_assert:bool ->
  ?ban_unix_write:bool ->
  file:string ->
  string ->
  Diagnostic.t list
(** Scan file contents (already read) for the banned patterns. With
    [ban_stdout] (default false), also flag direct stdout printing;
    with [ban_assert] (default false), also flag undocumented
    [assert false]; with [ban_unix_write] (default false), also flag
    raw [Unix] writes. *)

val scan_file :
  ?ban_stdout:bool -> ?ban_assert:bool -> ?ban_unix_write:bool -> string -> Diagnostic.t list
(** Read and {!scan_source} one [.ml] file. *)

val scan_tree :
  ?require_mli:bool ->
  ?ban_stdout:bool ->
  ?ban_assert:bool ->
  ?ban_unix_write:bool ->
  string ->
  Diagnostic.t list
(** Walk a directory (skipping [_build] and dot-directories), scanning
    every [.ml]. With [require_mli] (default false), also demand a
    sibling [.mli] for every [.ml]. With [ban_stdout] (default false),
    flag direct stdout printing — except under [report/] and [obs/]
    path components, which host the sanctioned sinks. With
    [ban_assert] (default false), flag undocumented [assert false].
    With [ban_unix_write] (default false), flag raw [Unix] writes —
    except in [framing.ml] under a [server/] path component, which is
    the sanctioned write path. *)

val scan_roots : string list -> Diagnostic.t list
(** Scan several roots; a root whose basename is ["lib"] gets
    [require_mli:true], [ban_stdout:true] and [ban_assert:true]
    automatically, and every root gets [ban_unix_write:true]. *)
