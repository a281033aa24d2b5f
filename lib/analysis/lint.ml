(* Source lint; see lint.mli.

   Every rule is a pattern over the code tokens of a file's
   [Modinfo.t]: comments are set aside (only [lint/assert-false] reads
   them, through the file's waivers) and a string or character literal
   is one opaque token, so documentation and message text never trip a
   rule. *)

module D = Check.Diagnostic

type scope = Lib | Other

(* A lexed file: the code tokens rules match on, and its symbol table. *)
type source = { code : Lexer.token array; info : Modinfo.t }

let kind_at s i kind = i >= 0 && i < Array.length s.code && s.code.(i).kind = kind
let is s i kind text = kind_at s i kind && s.code.(i).text = text

(* [M.fn] starting at code token [i] with [fn] one of [fns]: [Some fn]. *)
let qualified s i m fns =
  if
    is s i Uident m
    && is s (i + 1) Op "."
    && kind_at s (i + 2) Ident
    && List.mem s.code.(i + 2).text fns
  then Some s.code.(i + 2).text
  else None

(* ------------------------------------------------------------------ *)
(* Rules: each maps code token [i] to the message of a finding there   *)
(* ------------------------------------------------------------------ *)

let obj_magic s i =
  Option.map
    (fun _ -> "Obj.magic defeats the type system and every exactness invariant")
    (qualified s i "Obj" [ "magic" ])

(* A catch-all arm is only a problem when the nearest [try] / [match] /
   [function] before it is a [try]. *)
let catch_all s i =
  let rec governing k =
    if k < 0 then None
    else
      match s.code.(k) with
      | { kind = Ident; text = ("try" | "match" | "function") as w; _ } -> Some w
      | _ -> governing (k - 1)
  in
  if
    is s i Ident "with"
    && is s (i + 1) Ident "_"
    && is s (i + 2) Op "->"
    && governing (i - 1) = Some "try"
  then
    Some
      "bare `with _ ->` swallows every exception, including arithmetic errors; match \
       specific exceptions or return a Result"
  else None

(* Binding positions, where [= 0.5] defines rather than compares.
   Walking back from the [=] at its own bracket depth, a [let]/[and]
   reached before any other [=]-bearing operator or [in] makes it a
   [let] binding ([let b = x = 0.5] still compares, at its second
   [=]). Otherwise the innermost open bracket decides: [{] makes it a
   record field binding when a field label follows [{], [;] or
   [with] ([{ r with f = 0.5 }], or [f = 0.5 }] on a line of its own);
   [?(] an optional-argument default; anything else, or no bracket at
   all, a comparison ([if (x = 0.5)], [a; x = 0.5]). *)
let binder s i =
  let d = s.code.(i).depth in
  (* Same-depth walk back from [k]: [let]/[and] before any [=]-bearing
     operator or [in]. *)
  let rec let_bound k =
    k >= 0
    &&
    let t = s.code.(k) in
    if t.depth > d then let_bound (k - 1)
    else if t.depth < d then false
    else if t.kind = Ident && (t.text = "let" || t.text = "and") then true
    else if (t.kind = Op && String.contains t.text '=') || (t.kind = Ident && t.text = "in")
    then false
    else let_bound (k - 1)
  in
  (* The innermost bracket open at [i]. *)
  let rec opener k = if k < 0 || s.code.(k).depth < d then k else opener (k - 1) in
  (* Start of the field label ending at [k], past any [M.] qualifiers. *)
  let rec label_start k =
    if is s (k - 1) Op "." && kind_at s (k - 2) Uident then label_start (k - 2) else k
  in
  let_bound (i - 1)
  ||
  let k = opener (i - 1) in
  if is s k Punct "{" then
    kind_at s (i - 1) Ident
    &&
    let j = label_start (i - 1) - 1 in
    is s j Punct "{" || is s j Punct ";" || is s j Ident "with"
  else is s k Punct "(" && is s (k - 1) Op "?"

let float_eq s i =
  let float k = kind_at s k Float in
  if
    (is s i Op "=" || is s i Op "<>")
    && (float (i - 1) || float (i + 1) || (is s (i + 1) Op "-" && float (i + 2)))
    && not (binder s i)
  then
    Some
      "float literal compared with polymorphic (in)equality; use exact rationals or an \
       explicit tolerance"
  else None

(* [Mech.Mechanism.unsafe_of_audited] skips [make]'s validation because
   its one caller, [Engine.Compiled.of_matrix], has just run the release
   audit on the same matrix. Anywhere else it would build a mechanism
   that nothing certified. *)
let unaudited s i =
  if is s i Ident "unsafe_of_audited" then
    Some
      "Mechanism.unsafe_of_audited outside lib/engine/compiled.ml builds a mechanism no \
       audit certified; use Mechanism.make"
  else None

(* Library modules must not write to stdout behind the caller's back:
   report text flows through lib/report's injectable sinks and
   measurements through lib/obs recorders, which is what keeps bench
   output machine-readable. *)
let stdout_fns =
  [ "print_string"; "print_endline"; "print_newline"; "print_int"; "print_char"; "print_float" ]

let print_stdout s i =
  let t = s.code.(i) in
  let what =
    if t.kind = Ident && List.mem t.text stdout_fns then Some t.text
    else
      List.find_map
        (fun m -> Option.map (fun _ -> m ^ ".printf") (qualified s i m [ "printf" ]))
        [ "Printf"; "Format" ]
  in
  Option.map
    (fun what ->
      what
      ^ " writes to stdout from library code; route output through a lib/report sink or a \
         lib/obs recorder instead")
    what

(* lib/server/framing.ml is the tree's single point of contact with
   write(2): short writes, EAGAIN, dead peers and the injected
   "server.write" fault are all handled there, once. A raw Unix write
   anywhere else reopens every one of those holes. *)
let unix_write s i =
  Option.map
    (fun fn ->
      "Unix." ^ fn
      ^ " outside lib/server/framing.ml bypasses the one place that handles short writes, \
         EAGAIN, dead peers and injected write faults; enqueue on a Server.Framing.writer \
         instead")
    (qualified s i "Unix" [ "write"; "single_write"; "write_substring"; "single_write_substring" ])

(* [assert false] crashes without a witness; every "impossible" solver
   outcome has a typed escape ([Resilience.Solver_error.fail]). An
   [invariant] waiver covering the line, which states why the arm is
   dead, is the sanctioned form for a genuinely unreachable arm. *)
let assert_false s i =
  if
    is s i Ident "assert"
    && is s (i + 1) Ident "false"
    && not (Modinfo.waived s.info ~tag:"invariant" ~line:s.code.(i).line)
  then
    Some
      "assert false crashes without a witness; raise a typed error (e.g. \
       Resilience.Solver_error.fail) or state the invariant that makes this arm \
       unreachable in an `(* analysis: invariant — <why> *)` waiver"
  else None

(* ------------------------------------------------------------------ *)
(* Scope and per-file exemptions                                       *)
(* ------------------------------------------------------------------ *)

let components file = String.split_on_char '/' file

(* The unvalidated constructor's definition and its one audited caller. *)
let unaudited_exempt file =
  let dir = Filename.basename (Filename.dirname file) and base = Filename.basename file in
  (dir = "mech" && base = "mechanism.ml") || (dir = "engine" && base = "compiled.ml")

(* The sink directories themselves may print. *)
let stdout_exempt file = List.exists (fun c -> c = "report" || c = "obs") (components file)

(* The framing layer itself is where the raw writes live. *)
let unix_write_exempt file =
  Filename.basename file = "framing.ml" && List.mem "server" (components file)

let rules =
  [
    ("lint/obj-magic", (fun _ _ -> true), obj_magic);
    ("lint/catch-all", (fun _ _ -> true), catch_all);
    ("lint/float-eq", (fun _ _ -> true), float_eq);
    ("lint/unaudited-mechanism", (fun _ file -> not (unaudited_exempt file)), unaudited);
    ("lint/print-stdout", (fun scope file -> scope = Lib && not (stdout_exempt file)), print_stdout);
    ("lint/unix-write", (fun _ file -> not (unix_write_exempt file)), unix_write);
    ("lint/assert-false", (fun scope _ -> scope = Lib), assert_false);
  ]

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let scan ~scope (info : Modinfo.t) =
  let code =
    List.filter (fun (t : Lexer.token) -> t.kind <> Lexer.Comment) (Array.to_list info.toks)
  in
  let s = { code = Array.of_list code; info } in
  let file = info.path in
  let indices = List.init (Array.length s.code) Fun.id in
  List.concat_map
    (fun (rule, applies, hit) ->
      let finding i msg = D.error ~rule (D.Source_line { file; line = s.code.(i).line }) msg in
      if not (applies scope file) then []
      else
        List.sort_uniq compare
          (List.filter_map (fun i -> Option.map (finding i) (hit s i)) indices))
    rules

let missing_dir root =
  D.error ~rule:"lint/missing-dir"
    (D.Source_line { file = root; line = 0 })
    "directory does not exist"

let missing_mli ml =
  D.error ~rule:"lint/missing-mli"
    (D.Source_line { file = ml; line = 1 })
    "library module has no .mli: its invariants are unpublished and everything is exported"
