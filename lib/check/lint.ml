(* Source lint; see lint.mli.

   All pattern scans run over a stripped copy of the source in which
   comments and string literals are blanked out (newlines preserved),
   so the scanner never fires on documentation or message text. *)

module D = Diagnostic

(* ------------------------------------------------------------------ *)
(* Comment / string stripping                                          *)
(* ------------------------------------------------------------------ *)

let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 in
  (* depth > 0 means inside a comment; OCaml comments nest, and string
     literals inside comments still protect a closing "*)". *)
  let depth = ref 0 in
  let in_string = ref false in
  while !i < n do
    let c = src.[!i] in
    if !in_string then begin
      blank !i;
      if c = '\\' && !i + 1 < n then begin
        blank (!i + 1);
        i := !i + 2
      end
      else begin
        if c = '"' then in_string := false;
        incr i
      end
    end
    else if !depth > 0 then begin
      if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
        blank !i;
        blank (!i + 1);
        incr depth;
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        blank !i;
        blank (!i + 1);
        decr depth;
        i := !i + 2
      end
      else if c = '"' then begin
        blank !i;
        in_string := true;
        incr i
      end
      else begin
        blank !i;
        incr i
      end
    end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      blank !i;
      blank (!i + 1);
      depth := 1;
      i := !i + 2
    end
    else if c = '"' then begin
      blank !i;
      in_string := true;
      incr i
    end
    else if c = '\'' then begin
      (* Character literal vs type variable: ['x'] and ['\n'] are
         literals (blank their bodies -- they may contain quotes or
         parens); ['a] is a type variable (leave it). *)
      if !i + 2 < n && src.[!i + 1] = '\\' then begin
        (* escaped char: '\x' or '\ddd' or '\xhh' *)
        let j = ref (!i + 2) in
        while !j < n && src.[!j] <> '\'' && !j - !i <= 5 do
          incr j
        done;
        if !j < n && src.[!j] = '\'' then begin
          for k = !i to !j do
            blank k
          done;
          i := !j + 1
        end
        else incr i
      end
      else if !i + 2 < n && src.[!i + 2] = '\'' then begin
        blank !i;
        blank (!i + 1);
        blank (!i + 2);
        i := !i + 3
      end
      else incr i
    end
    else incr i
  done;
  Bytes.to_string out

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let line_of_offset src off =
  let line = ref 1 in
  for k = 0 to Stdlib.min off (String.length src - 1) - 1 do
    if src.[k] = '\n' then incr line
  done;
  !line

let line_start src off =
  let k = ref off in
  while !k > 0 && src.[!k - 1] <> '\n' do
    decr k
  done;
  !k

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '\''

let is_word_at src off word =
  let lw = String.length word in
  off + lw <= String.length src
  && String.sub src off lw = word
  && (off = 0 || not (is_ident_char src.[off - 1]))
  && (off + lw = String.length src || not (is_ident_char src.[off + lw]))

(* All offsets where [word] occurs as a standalone identifier. *)
let word_occurrences src word =
  let out = ref [] in
  let lw = String.length word in
  let i = ref 0 in
  let n = String.length src in
  while !i + lw <= n do
    if src.[!i] = word.[0] && is_word_at src !i word then out := !i :: !out;
    incr i
  done;
  List.rev !out

let skip_ws src i =
  let n = String.length src in
  let k = ref i in
  while !k < n && (src.[!k] = ' ' || src.[!k] = '\t' || src.[!k] = '\n' || src.[!k] = '\r') do
    incr k
  done;
  !k

(* ------------------------------------------------------------------ *)
(* Rule: Obj.magic                                                     *)
(* ------------------------------------------------------------------ *)

(* The dot is not an identifier character, so scan for the standalone
   word "Obj" and check the ".magic" suffix by hand. *)
let scan_obj_magic ~file stripped =
  List.filter_map
    (fun off ->
      let after_dot = off + 4 in
      if
        off + 3 < String.length stripped
        && stripped.[off + 3] = '.'
        && is_word_at stripped after_dot "magic"
      then
        Some
          (D.error ~rule:"lint/obj-magic"
             (D.Source_line { file; line = line_of_offset stripped off })
             "Obj.magic defeats the type system and every exactness invariant")
      else None)
    (word_occurrences stripped "Obj")

(* ------------------------------------------------------------------ *)
(* Rule: bare [try ... with _ ->]                                      *)
(* ------------------------------------------------------------------ *)

(* Nearest standalone [try] / [match] / [function] before [off]; a
   catch-all arm is only a problem on a [try]. *)
let governing_keyword stripped off =
  let prefix = String.sub stripped 0 off in
  let best = ref None in
  List.iter
    (fun word ->
      List.iter
        (fun o ->
          match !best with
          | Some (bo, _) when bo >= o -> ()
          | _ -> best := Some (o, word))
        (word_occurrences prefix word))
    [ "try"; "match"; "function" ];
  Option.map snd !best

let scan_catch_all ~file stripped =
  List.filter_map
    (fun off ->
      let k = skip_ws stripped (off + 4) in
      let n = String.length stripped in
      if
        k < n
        && stripped.[k] = '_'
        && (k + 1 >= n || not (is_ident_char stripped.[k + 1]))
      then begin
        let k2 = skip_ws stripped (k + 1) in
        if k2 + 1 < n && stripped.[k2] = '-' && stripped.[k2 + 1] = '>' then
          match governing_keyword stripped off with
          | Some "try" ->
            Some
              (D.error ~rule:"lint/catch-all"
                 (D.Source_line { file; line = line_of_offset stripped off })
                 "bare `with _ ->` swallows every exception, including arithmetic errors; \
                  match specific exceptions or return a Result")
          | _ -> None
        else None
      end
      else None)
    (word_occurrences stripped "with")

(* ------------------------------------------------------------------ *)
(* Rule: float-literal [=] / [<>] comparison                           *)
(* ------------------------------------------------------------------ *)

let operator_chars = "=<>!&|:@^+-*/$%.~?"

let is_op_char c = String.contains operator_chars c

(* Token immediately right of [i] (after spaces): is it a float
   literal like 1.0, 0., 1e-9, -3.25? *)
let float_literal_right stripped i =
  let n = String.length stripped in
  let k = ref (skip_ws stripped i) in
  if !k < n && stripped.[!k] = '-' then k := skip_ws stripped (!k + 1);
  let start = !k in
  while !k < n && ((stripped.[!k] >= '0' && stripped.[!k] <= '9') || stripped.[!k] = '_') do
    incr k
  done;
  if !k = start then false
  else if !k < n && stripped.[!k] = '.' then true
  else if !k < n && (stripped.[!k] = 'e' || stripped.[!k] = 'E') then true
  else false

(* Token immediately left of [i] (before spaces): a float literal? *)
let float_literal_left stripped i =
  let k = ref (i - 1) in
  while !k >= 0 && (stripped.[!k] = ' ' || stripped.[!k] = '\t') do
    decr k
  done;
  if !k < 0 then false
  else begin
    let last = !k in
    (* Walk the candidate literal backwards: digits, '.', '_', e/E/+/-. *)
    let seen_dot = ref false and seen_digit = ref false in
    let fin = ref false in
    while (not !fin) && !k >= 0 do
      let c = stripped.[!k] in
      if c >= '0' && c <= '9' then begin
        seen_digit := true;
        decr k
      end
      else if c = '.' then begin
        seen_dot := true;
        decr k
      end
      else if c = '_' || c = 'e' || c = 'E' then decr k
      else fin := true
    done;
    (* A bare int is not a float; require a dot, and require the token
       to not be an identifier suffix (e.g. [x2.] can't happen). *)
    !seen_digit && !seen_dot && last > !k
    && (!k < 0 || not (is_ident_char stripped.[!k]))
  end

(* Exempt binding positions, where [= 0.5] defines rather than
   compares: the first [=] of a [let]/[and] line, optional-argument
   defaults [?(x = 0.5)], and record-field initializers. A later [=]
   on a [let] line (e.g. [let b = x = 0.5]) is still a comparison and
   still flagged. *)
let binder_exempt stripped i =
  let ls = line_start stripped i in
  let before = String.sub stripped ls (i - ls) in
  let matches re = Str.string_match (Str.regexp re) before 0 in
  let ident = "[a-z_][A-Za-z0-9_']*" in
  matches {|^ *\(let\|and\)\( +rec\)? +[^=]*$|}
  || matches (".*? *( *" ^ ident ^ " *$")
  || matches (".*[{;] *" ^ ident ^ " *$")

let scan_float_eq ~file stripped =
  let n = String.length stripped in
  let out = ref [] in
  for i = 0 to n - 1 do
    let flag op_len =
      let right = float_literal_right stripped (i + op_len) in
      let left = float_literal_left stripped i in
      if (right || left) && not (binder_exempt stripped i) then
        out :=
          D.error ~rule:"lint/float-eq"
            (D.Source_line { file; line = line_of_offset stripped i })
            "float literal compared with polymorphic (in)equality; use exact rationals \
             or an explicit tolerance"
          :: !out
    in
    if stripped.[i] = '=' then begin
      let prev_op = i > 0 && is_op_char stripped.[i - 1] in
      let next_op = i + 1 < n && is_op_char stripped.[i + 1] in
      if (not prev_op) && not next_op then flag 1
    end
    else if
      stripped.[i] = '<'
      && i + 1 < n
      && stripped.[i + 1] = '>'
      && (i = 0 || not (is_op_char stripped.[i - 1]))
      && (i + 2 >= n || not (is_op_char stripped.[i + 2]))
    then flag 2
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Rule: assert false in library code                                  *)
(* ------------------------------------------------------------------ *)

(* [assert false] crashes without a witness. In this repository every
   "impossible" solver outcome has a typed escape
   ([Resilience.Solver_error.fail]), so a bare [assert false] in lib/
   is flagged — unless a sibling comment (the same line or an adjacent
   one, in the ORIGINAL source) states the invariant that makes the arm
   unreachable, which is the sanctioned form for genuinely proven
   dead arms. *)
let scan_assert_false ~file ~original stripped =
  let lines = Array.of_list (String.split_on_char '\n' original) in
  let has_comment l =
    (* [l] is 1-based *)
    l >= 1 && l <= Array.length lines
    &&
    let text = lines.(l - 1) in
    let n = String.length text in
    let found = ref false in
    for k = 0 to n - 2 do
      if text.[k] = '(' && text.[k + 1] = '*' then found := true
    done;
    !found
  in
  List.filter_map
    (fun off ->
      let k = skip_ws stripped (off + 6) in
      if not (is_word_at stripped k "false") then None
      else begin
        let line = line_of_offset stripped off in
        if has_comment (line - 1) || has_comment line || has_comment (line + 1) then None
        else
          Some
            (D.error ~rule:"lint/assert-false"
               (D.Source_line { file; line })
               "assert false crashes without a witness; raise a typed error \
                (e.g. Resilience.Solver_error.fail) or cite the invariant that makes \
                this arm unreachable in a sibling comment")
      end)
    (word_occurrences stripped "assert")

(* ------------------------------------------------------------------ *)
(* Rule: direct stdout printing in library code                        *)
(* ------------------------------------------------------------------ *)

(* Library modules must not write to stdout behind the caller's back:
   report text flows through lib/report's injectable sinks and
   measurements through lib/obs recorders, which is what keeps bench
   output machine-readable. Those two directories are exempt — they
   ARE the sinks. *)
let stdout_fns =
  [ "print_string"; "print_endline"; "print_newline"; "print_int"; "print_char"; "print_float" ]

(* [Module] immediately followed by [.fn] (same trick as Obj.magic:
   the dot is not an identifier character). *)
let module_call_occurrences stripped ~modname ~fn =
  List.filter
    (fun off ->
      let dot = off + String.length modname in
      dot < String.length stripped
      && stripped.[dot] = '.'
      && is_word_at stripped (dot + 1) fn)
    (word_occurrences stripped modname)

let scan_print_stdout ~file stripped =
  let diag off what =
    D.error ~rule:"lint/print-stdout"
      (D.Source_line { file; line = line_of_offset stripped off })
      (what
      ^ " writes to stdout from library code; route output through a lib/report sink or a \
         lib/obs recorder instead")
  in
  let bare =
    List.concat_map
      (fun fn -> List.map (fun off -> diag off fn) (word_occurrences stripped fn))
      stdout_fns
  in
  let printf =
    List.concat_map
      (fun modname ->
        List.map
          (fun off -> diag off (modname ^ ".printf"))
          (module_call_occurrences stripped ~modname ~fn:"printf"))
      [ "Printf"; "Format" ]
  in
  List.sort_uniq compare (bare @ printf)

(* ------------------------------------------------------------------ *)
(* Rule: raw Unix writes outside the framing layer                     *)
(* ------------------------------------------------------------------ *)

(* lib/server/framing.ml is the tree's single point of contact with
   write(2): short writes, EAGAIN, dead peers and the injected
   "server.write" fault are all handled there, once. A raw Unix write
   anywhere else reopens every one of those holes. *)
let unix_write_fns = [ "write"; "single_write"; "write_substring"; "single_write_substring" ]

let scan_unix_write ~file stripped =
  List.concat_map
    (fun fn ->
      List.map
        (fun off ->
          D.error ~rule:"lint/unix-write"
            (D.Source_line { file; line = line_of_offset stripped off })
            ("Unix." ^ fn
            ^ " outside lib/server/framing.ml bypasses the one place that handles short \
               writes, EAGAIN, dead peers and injected write faults; enqueue on a \
               Server.Framing.writer instead"))
        (module_call_occurrences stripped ~modname:"Unix" ~fn))
    unix_write_fns

(* ------------------------------------------------------------------ *)
(* Rule: the unvalidated mechanism constructor                         *)
(* ------------------------------------------------------------------ *)

(* [Mech.Mechanism.unsafe_of_audited] skips [make]'s validation because
   its one caller, [Engine.Compiled.of_matrix], has just run the release
   audit on the same matrix. Anywhere else it would build a mechanism
   that nothing certified. *)
let unaudited_exempt file =
  let dir = Filename.basename (Filename.dirname file) and base = Filename.basename file in
  (dir = "mech" && base = "mechanism.ml") || (dir = "engine" && base = "compiled.ml")

let scan_unaudited ~file stripped =
  if unaudited_exempt file then []
  else
    List.map
      (fun off ->
        D.error ~rule:"lint/unaudited-mechanism"
          (D.Source_line { file; line = line_of_offset stripped off })
          "Mechanism.unsafe_of_audited outside lib/engine/compiled.ml builds a mechanism \
           no audit certified; use Mechanism.make")
      (word_occurrences stripped "unsafe_of_audited")

(* ------------------------------------------------------------------ *)
(* File and tree drivers                                               *)
(* ------------------------------------------------------------------ *)

let scan_source ?(ban_stdout = false) ?(ban_assert = false) ?(ban_unix_write = false) ~file
    src =
  let stripped = strip src in
  scan_obj_magic ~file stripped
  @ scan_catch_all ~file stripped
  @ scan_float_eq ~file stripped
  @ scan_unaudited ~file stripped
  @ (if ban_stdout then scan_print_stdout ~file stripped else [])
  @ (if ban_unix_write then scan_unix_write ~file stripped else [])
  @ (if ban_assert then scan_assert_false ~file ~original:src stripped else [])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan_file ?ban_stdout ?ban_assert ?ban_unix_write path =
  scan_source ?ban_stdout ?ban_assert ?ban_unix_write ~file:path (read_file path)

(* The sink directories themselves may print. *)
let stdout_exempt path =
  List.exists
    (fun component -> component = "report" || component = "obs")
    (String.split_on_char '/' path)

(* The framing layer itself is where the raw writes live. *)
let unix_write_exempt path =
  Filename.basename path = "framing.ml"
  && List.exists (fun component -> component = "server") (String.split_on_char '/' path)

let rec walk dir acc =
  match Sys.readdir dir with
  | entries ->
    Array.sort compare entries;
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if String.length entry > 0 && (entry.[0] = '.' || entry.[0] = '_') then acc
        else if Sys.is_directory path then walk path acc
        else path :: acc)
      acc entries
  | exception Sys_error _ -> acc

let scan_tree ?(require_mli = false) ?(ban_stdout = false) ?(ban_assert = false)
    ?(ban_unix_write = false) root =
  if not (Sys.file_exists root && Sys.is_directory root) then
    [ D.error ~rule:"lint/missing-dir"
        (D.Source_line { file = root; line = 0 })
        "directory does not exist" ]
  else begin
    let files = List.rev (walk root []) in
    let mls = List.filter (fun f -> Filename.check_suffix f ".ml") files in
    let pattern_diags =
      List.concat_map
        (fun ml ->
          scan_file
            ~ban_stdout:(ban_stdout && not (stdout_exempt ml))
            ~ban_assert
            ~ban_unix_write:(ban_unix_write && not (unix_write_exempt ml))
            ml)
        mls
    in
    let mli_diags =
      if not require_mli then []
      else
        List.filter_map
          (fun ml ->
            let mli = ml ^ "i" in
            if Sys.file_exists mli then None
            else
              Some
                (D.error ~rule:"lint/missing-mli"
                   (D.Source_line { file = ml; line = 1 })
                   "library module has no .mli: its invariants are unpublished and \
                    everything is exported"))
          mls
    in
    pattern_diags @ mli_diags
  end

let scan_roots roots =
  List.concat_map
    (fun root ->
      let is_lib = Filename.basename root = "lib" in
      scan_tree ~require_mli:is_lib ~ban_stdout:is_lib ~ban_assert:is_lib
        ~ban_unix_write:true root)
    roots
