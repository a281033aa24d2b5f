(* Per-module symbol table; see modinfo.mli. *)

module L = Lexer

type mutable_kind = Ref | Table | Buf | Arr | Queue_like

let kind_to_string = function
  | Ref -> "ref"
  | Table -> "hashtbl"
  | Buf -> "buffer"
  | Arr -> "array"
  | Queue_like -> "queue"

type global = { gname : string; gkind : mutable_kind; gline : int; gtok : int }
type field = { fname : string; fline : int }
type waiver = { wtag : string; wwhy : string; wline : int; wfrom : int; wto : int }
type call = { chain : string list; fn : string; cline : int }

type t = {
  path : string;
  modname : string;
  toks : L.token array;
  guarded : bool array;
  refs : (string list * int) list;
  calls : call list;
  globals : global list;
  fields : field list;
  waivers : waiver list;
  malformed_waivers : (string * string * int) list;
  spawn_lines : int list;
  float_sites : (string * int) list;
}

let valid_tags = [ "domain-local"; "float-ok"; "order-insensitive"; "clock-ok"; "invariant" ]

let module_name_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* ------------------------------------------------------------------ *)
(* Token-array helpers                                                 *)
(* ------------------------------------------------------------------ *)

let is_code t = t.L.kind <> L.Comment

(* Next/previous non-comment token index, or -1. *)
let next_code toks i =
  let n = Array.length toks in
  let j = ref (i + 1) in
  while !j < n && not (is_code toks.(!j)) do
    incr j
  done;
  if !j < n then !j else -1

let prev_code toks i =
  let j = ref (i - 1) in
  while !j >= 0 && not (is_code toks.(!j)) do
    decr j
  done;
  !j

let tok_is toks i kind text =
  i >= 0
  && i < Array.length toks
  && toks.(i).L.kind = kind
  && toks.(i).L.text = text

(* Indices where a new top-level structure item starts: column 0,
   bracket depth 0, one of the structure keywords. *)
let item_keywords =
  [ "let"; "module"; "type"; "open"; "exception"; "external"; "include"; "class"; "and"; "end" ]

let item_starts toks =
  let out = ref [] in
  Array.iteri
    (fun i t ->
      if
        t.L.col = 0 && t.L.depth = 0 && t.L.kind = L.Ident
        && List.mem t.L.text item_keywords
      then out := i :: !out)
    toks;
  Array.of_list (List.rev !out)

(* First item start strictly after token index [i] (token index), or
   [Array.length toks]. *)
let next_item_start toks items i =
  let n = Array.length toks in
  let ans = ref n in
  Array.iter (fun s -> if s > i && s < !ans then ans := s) items;
  !ans

(* ------------------------------------------------------------------ *)
(* Waivers                                                             *)
(* ------------------------------------------------------------------ *)

(* Extract the waiver payload from a comment body: everything after
   the waiver marker. Returns (tag, why, substance). *)
let parse_waiver_body body =
  let tag_start =
    let k = ref 0 in
    while !k < String.length body && (body.[!k] = ' ' || body.[!k] = '\t') do
      incr k
    done;
    !k
  in
  let k = ref tag_start in
  while
    !k < String.length body
    && ((body.[!k] >= 'a' && body.[!k] <= 'z') || body.[!k] = '-')
  do
    incr k
  done;
  let tag = String.sub body tag_start (!k - tag_start) in
  let why = String.sub body !k (String.length body - !k) in
  (* Strip the comment terminator and separator punctuation; the
     justification must still contain a real sentence fragment. *)
  let why =
    if String.length why >= 2 && String.sub why (String.length why - 2) 2 = "*)" then
      String.sub why 0 (String.length why - 2)
    else why
  in
  let substantive =
    let c = ref 0 in
    String.iter
      (fun ch ->
        if
          (ch >= 'a' && ch <= 'z')
          || (ch >= 'A' && ch <= 'Z')
          || (ch >= '0' && ch <= '9')
        then incr c)
      why;
    !c
  in
  (tag, String.trim why, substantive)

let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = if i + nn > nh then None else if String.sub hay i nn = needle then Some i else go (i + 1) in
  go 0

(* A standalone waiver directly above a let/type/module item covers
   the whole item: from the item keyword to the first later-line token
   at a column <= the keyword's column. *)
let block_keywords = [ "let"; "type"; "module"; "and" ]

let scan_waivers toks =
  let n = Array.length toks in
  let waivers = ref [] and malformed = ref [] in
  Array.iteri
    (fun i t ->
      if t.L.kind = L.Comment then begin
        match find_substring t.L.text "analysis:" with
        | None -> ()
        | Some off ->
          let body =
            String.sub t.L.text (off + 9) (String.length t.L.text - off - 9)
          in
          let tag, why, substantive = parse_waiver_body body in
          if not (List.mem tag valid_tags) then
            malformed :=
              ( "unknown-waiver",
                Printf.sprintf
                  "unknown analysis waiver tag %S; valid tags: %s" tag
                  (String.concat ", " valid_tags),
                t.L.line )
              :: !malformed
          else if substantive < 8 then
            malformed :=
              ( "bare-waiver",
                Printf.sprintf
                  "bare `analysis: %s` waiver: state the reason the finding is safe \
                   (e.g. which domain owns the state) after an em dash"
                  tag,
                t.L.line )
              :: !malformed
          else begin
            let p = prev_code toks i in
            let standalone = p < 0 || toks.(p).L.end_line < t.L.line in
            let wfrom = t.L.line in
            let wto = ref t.L.end_line in
            let j = next_code toks i in
            if j >= 0 && standalone then begin
              wto := Stdlib.max !wto toks.(j).L.line;
              if toks.(j).L.kind = L.Ident && List.mem toks.(j).L.text block_keywords
              then begin
                (* item scope: until the first code token on a later
                   line at column <= the keyword's column *)
                let stop = ref (-1) in
                let k = ref (j + 1) in
                while !stop < 0 && !k < n do
                  let u = toks.(!k) in
                  if is_code u && u.L.line > toks.(j).L.line && u.L.col <= toks.(j).L.col
                  then stop := !k
                  else incr k
                done;
                wto :=
                  Stdlib.max !wto
                    (if !stop >= 0 then toks.(!stop).L.line - 1
                     else if n > 0 then toks.(n - 1).L.end_line
                     else !wto)
              end
            end
            else if j >= 0 && not standalone then
              (* trailing waiver: its own line(s) only *)
              ();
            waivers := { wtag = tag; wwhy = why; wline = t.L.line; wfrom; wto = !wto } :: !waivers
          end
      end)
    toks;
  (List.rev !waivers, List.rev !malformed)

(* ------------------------------------------------------------------ *)
(* References, calls, spawn and float sites                            *)
(* ------------------------------------------------------------------ *)

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-." ]

let float_idents =
  [ "float_of_int"; "float_of_string"; "float_of_string_opt"; "int_of_float";
    "string_of_float"; "infinity"; "nan"; "epsilon_float"; "max_float"; "min_float" ]

let scan_uses toks =
  let n = Array.length toks in
  let refs = ref [] and calls = ref [] and spawns = ref [] and floats = ref [] in
  let i = ref 0 in
  while !i < n do
    let t = toks.(!i) in
    (match t.L.kind with
    | L.Float -> floats := (t.L.text, t.L.line) :: !floats
    | L.Op when List.mem t.L.text float_ops -> floats := (t.L.text, t.L.line) :: !floats
    | L.Ident
      when List.mem t.L.text float_idents
           || (String.length t.L.text > 9 && String.sub t.L.text 0 9 = "float_of_") ->
      (* qualified [Float.of_int]-style calls are handled below; a
         bare [float_of_int] is caught here *)
      let p = prev_code toks !i in
      if not (tok_is toks p L.Op ".") then floats := (t.L.text, t.L.line) :: !floats
    | _ -> ());
    (if t.L.kind = L.Uident then begin
       let p = prev_code toks !i in
       if not (tok_is toks p L.Op ".") then begin
         (* maximal capitalized chain A.B.C *)
         let chain = ref [ t.L.text ] in
         let last = ref !i in
         let continue = ref true in
         while !continue do
           let d = next_code toks !last in
           let u = if d >= 0 then next_code toks d else -1 in
           if
             d >= 0 && u >= 0
             && tok_is toks d L.Op "."
             && toks.(u).L.kind = L.Uident
           then begin
             chain := toks.(u).L.text :: !chain;
             last := u
           end
           else continue := false
         done;
         let chain_list = List.rev !chain in
         refs := (chain_list, t.L.line) :: !refs;
         (* trailing lowercase member: A.B.fn *)
         let d = next_code toks !last in
         let f = if d >= 0 then next_code toks d else -1 in
         if d >= 0 && f >= 0 && tok_is toks d L.Op "." && toks.(f).L.kind = L.Ident
         then begin
           let fn = toks.(f).L.text in
           calls := { chain = chain_list; fn; cline = toks.(f).L.line } :: !calls;
           (match (List.rev chain_list, fn) with
           | "Domain" :: _, "spawn" -> spawns := toks.(f).L.line :: !spawns
           | "Float" :: _, _ -> floats := ("Float." ^ fn, toks.(f).L.line) :: !floats
           | _ -> ())
         end;
         i := !last
       end
     end);
    incr i
  done;
  (List.rev !refs, List.rev !calls, List.rev !spawns, List.rev !floats)

(* ------------------------------------------------------------------ *)
(* Top-level mutable state                                             *)
(* ------------------------------------------------------------------ *)

(* RHS head of a binding: which allocator does the bound value come
   from? [Atomic.make], [Mutex.create] and [Condition.create] are
   deliberately absent — they are the safe primitives. *)
let rhs_kind toks e =
  let a = next_code toks e in
  if a < 0 then None
  else
    match toks.(a).L.kind with
    | L.Ident when toks.(a).L.text = "ref" -> Some Ref
    | L.Punct when toks.(a).L.text = "[" ->
      let b = next_code toks a in
      if tok_is toks b L.Op "|" then Some Arr else None
    | L.Uident ->
      let d = next_code toks a in
      let f = if d >= 0 then next_code toks d else -1 in
      if d >= 0 && f >= 0 && tok_is toks d L.Op "." && toks.(f).L.kind = L.Ident then
        (match (toks.(a).L.text, toks.(f).L.text) with
        | "Hashtbl", "create" -> Some Table
        | "Buffer", "create" -> Some Buf
        | "Bytes", ("create" | "make" | "of_string") -> Some Buf
        | "Array", ("make" | "init" | "create" | "make_matrix" | "copy") -> Some Arr
        | ("Queue" | "Stack"), "create" -> Some Queue_like
        | _ -> None)
      else None
    | _ -> None

(* For a [let] item starting at token [s]: the binding name and the
   index of the first depth-0 [=] inside the item. *)
let binding_of_item toks items s =
  let stop = next_item_start toks items s in
  let n0 = next_code toks s in
  let name_i =
    if tok_is toks n0 L.Ident "rec" then next_code toks n0 else n0
  in
  if name_i < 0 || name_i >= stop || toks.(name_i).L.kind <> L.Ident then None
  else begin
    let eq = ref (-1) in
    let k = ref name_i in
    while !eq < 0 && !k < stop do
      if
        toks.(!k).L.kind = L.Op
        && toks.(!k).L.text = "="
        && toks.(!k).L.depth = toks.(s).L.depth
      then eq := !k
      else incr k
    done;
    if !eq < 0 then None else Some (name_i, !eq, stop)
  end

let scan_globals toks items =
  let out = ref [] in
  Array.iter
    (fun s ->
      if toks.(s).L.text = "let" then
        match binding_of_item toks items s with
        | None -> ()
        | Some (name_i, eq, _) when
            (* parameter-free bindings only: [let row t i = Array.copy …]
               allocates per call, not shared state *)
            (let after = next_code toks name_i in
             after = eq || tok_is toks after L.Op ":") -> (
          match rhs_kind toks eq with
          | None -> ()
          | Some k ->
            out :=
              {
                gname = toks.(name_i).L.text;
                gkind = k;
                gline = toks.(name_i).L.line;
                gtok = name_i;
              }
              :: !out)
        | Some _ -> ())
    items;
  List.rev !out

let scan_fields toks =
  let out = ref [] in
  Array.iteri
    (fun i t ->
      if t.L.kind = L.Ident && t.L.text = "mutable" then begin
        let j = next_code toks i in
        if j >= 0 && toks.(j).L.kind = L.Ident then
          out := { fname = toks.(j).L.text; fline = toks.(j).L.line } :: !out
      end)
    toks;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Guarded regions                                                     *)
(* ------------------------------------------------------------------ *)

(* Guard helpers: top-level [let f ... = Mutex.protect ...]. *)
let scan_guard_helpers toks items =
  let out = ref [] in
  Array.iter
    (fun s ->
      if toks.(s).L.text = "let" then
        match binding_of_item toks items s with
        | None -> ()
        | Some (name_i, eq, _) ->
          let a = next_code toks eq in
          let d = if a >= 0 then next_code toks a else -1 in
          let f = if d >= 0 then next_code toks d else -1 in
          if
            tok_is toks a L.Uident "Mutex"
            && tok_is toks d L.Op "."
            && tok_is toks f L.Ident "protect"
          then out := toks.(name_i).L.text :: !out)
    items;
  !out

(* Qualified call [M.fn] starting at token [i] (the [Uident]). *)
let is_qualified toks i m fn =
  tok_is toks i L.Uident m
  &&
  let d = next_code toks i in
  let f = if d >= 0 then next_code toks d else -1 in
  tok_is toks d L.Op "." && tok_is toks f L.Ident fn

let compute_guarded toks items =
  let n = Array.length toks in
  let guarded = Array.make n false in
  let mark a b =
    for k = Stdlib.max 0 a to Stdlib.min (n - 1) b do
      guarded.(k) <- true
    done
  in
  (* region from [i]: until bracket depth drops below the depth at
     [i], bounded by the next top-level item *)
  let region_end i =
    let stop = next_item_start toks items i in
    let d = toks.(i).L.depth in
    let j = ref (i + 1) in
    while !j < stop && toks.(!j).L.depth >= d do
      incr j
    done;
    !j - 1
  in
  let helpers = scan_guard_helpers toks items in
  (* Mutex.protect and guard-helper applications *)
  Array.iteri
    (fun i t ->
      if is_qualified toks i "Mutex" "protect" then mark i (region_end i)
      else if
        t.L.kind = L.Ident && List.mem t.L.text helpers
        &&
        let p = prev_code toks i in
        (not (tok_is toks p L.Op ".")) && not (tok_is toks p L.Ident "let")
      then mark i (region_end i))
    toks;
  (* Mutex.lock ... Mutex.unlock spans *)
  let locks = ref [] and unlocks = ref [] in
  Array.iteri
    (fun i _ ->
      if is_qualified toks i "Mutex" "lock" then locks := i :: !locks
      else if is_qualified toks i "Mutex" "unlock" then unlocks := i :: !unlocks)
    toks;
  let locks = Array.of_list (List.rev !locks) in
  let unlocks = List.rev !unlocks in
  Array.iteri
    (fun li lock ->
      let next_lock = if li + 1 < Array.length locks then locks.(li + 1) else n in
      let bound = Stdlib.min next_lock (next_item_start toks items lock) in
      let last_unlock =
        List.fold_left
          (fun acc u -> if u > lock && u < bound then Stdlib.max acc u else acc)
          (-1) unlocks
      in
      if last_unlock >= 0 then mark lock last_unlock
      else mark lock (next_item_start toks items lock - 1))
    locks;
  guarded

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let of_source ~path src =
  let toks = L.tokenize src in
  let items = item_starts toks in
  let refs, calls, spawn_lines, float_sites = scan_uses toks in
  let waivers, malformed_waivers = scan_waivers toks in
  {
    path;
    modname = module_name_of_path path;
    toks;
    guarded = compute_guarded toks items;
    refs;
    calls;
    globals = scan_globals toks items;
    fields = scan_fields toks;
    waivers;
    malformed_waivers;
    spawn_lines;
    float_sites;
  }

let of_file path = of_source ~path (L.read_file path)

let waived t ~tag ~line =
  List.exists (fun w -> w.wtag = tag && w.wfrom <= line && line <= w.wto) t.waivers
