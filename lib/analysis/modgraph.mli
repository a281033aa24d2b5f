(** Module-dependency graph over the serving tree.

    Built from two sources of truth that are combined rather than
    guessed: [dune] files give the unit structure (library and
    executable names, their declared library dependencies), and the
    token-level reference chains from {!Modinfo} give file-to-file
    edges. A capitalized chain [A.B] in file [F] resolves to:

    + a sibling module [a.ml] of [F]'s own unit (wrapped-library
      short form), or
    + library [a]'s module [b.ml] when [F]'s unit declares library
      [a] as a dependency ([A.B] = [Lib.Module]), or the library's
      main module [a.ml] when the chain stops at the library name, or
    + every module of library [a] when neither narrows it (coarse but
      sound for reachability), or
    + nothing — [A] is external ([List], [Unix], …) and carries no
      in-tree edge.

    Edges point from a file to the files it references, so a closure
    from the exact core is "everything the core's behaviour can
    depend on", and a closure from the serve path is "everything a
    served byte can pass through". *)

type t

val build : dune_files:string list -> Modinfo.t list -> t
(** Parse each [dune] file for its units, over the [.ml] files beside
    it among the already-lexed [infos]; a file outside every unit is
    not in the graph. *)

val paths : t -> string list
(** All analyzed file paths, sorted. *)

val info : t -> string -> Modinfo.t option

val infos : t -> Modinfo.t list
(** All symbol tables, sorted by path. *)

val edges_of : t -> string -> string list
(** Outgoing edges (referenced in-tree files), sorted, deduplicated. *)

val closure : t -> roots:string list -> (string * string list) list
(** Breadth-first dependency closure from [roots] (file paths).
    Returns each reachable file with its witness chain — a shortest
    reference path [root; …; file] — sorted by file path. Root files
    appear with the singleton chain. Unknown root paths are ignored. *)

val under : dirs_or_files:string list -> string -> bool
(** Does a path sit under one of the given directories (or equal one
    of the given files)? Purely textual: ["lib/obs"] matches
    ["lib/obs/obs.ml"]. *)
