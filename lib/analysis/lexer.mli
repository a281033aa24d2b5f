(** Token-level OCaml lexer: the one OCaml source scanner in [lib/],
    behind every file [dplint check] reads: the source lint ({!Lint})
    and the cross-module passes see the same tokens.

    Both need token kinds, positions, nesting depth, and the text of
    comments (where waivers and invariant notes live) without the
    weight of a full parser. This lexer produces exactly that: a flat
    token array with enough geometry (line, column, bracket depth) for
    the lint's token patterns and the lexical-region reasoning the
    passes do.

    Deliberate approximations, shared with every consumer:
    - keywords are plain {!Ident} tokens ([let], [mutable], …);
    - operator characters are grouped maximally ([+.], [<-], [:=]);
    - [{|…|}] and [{id|…|id}] quoted strings lex as one {!String};
    - character literals and type variables are told apart by shape
      (['x'] / ['\n'] literal, ['a] variable). *)

type kind =
  | Ident  (** lowercase/underscore-led identifier, including keywords *)
  | Uident  (** capitalized identifier: module, constructor *)
  | Int
  | Float  (** any literal with a ['.'] or exponent *)
  | String  (** body not preserved; the token text is ["\""] *)
  | Char
  | Comment  (** full text including delimiters, possibly multi-line *)
  | Op  (** maximal run of operator characters *)
  | Punct  (** single bracket, paren, brace, or other punctuation *)

type token = {
  kind : kind;
  text : string;
  line : int;  (** 1-based start line *)
  end_line : int;  (** = [line] except for multi-line comments/strings *)
  col : int;  (** 0-based column of the first character *)
  depth : int;  (** ['('], ['['], ['{'] nesting depth {e before} this token *)
}

val tokenize : string -> token array
(** Lex a complete source buffer. Never raises: unrecognizable bytes
    become single-character {!Punct} tokens, and an unterminated
    comment or string simply ends at end of file. *)

val read_file : string -> string
(** Binary-exact file slurp. *)

val source_files : string -> string list
(** Every file under a directory, depth first with each directory's
    entries in sorted order, skipping [_]- and [.]-led entries ([_build],
    dotfiles). An unreadable directory contributes nothing. The one
    directory walker of [dplint check]. *)
