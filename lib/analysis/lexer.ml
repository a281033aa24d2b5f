(* Token-level OCaml lexer; see lexer.mli. *)

type kind = Ident | Uident | Int | Float | String | Char | Comment | Op | Punct

type token = {
  kind : kind;
  text : string;
  line : int;
  end_line : int;
  col : int;
  depth : int;
}

let is_lower c = (c >= 'a' && c <= 'z') || c = '_'
let is_upper c = c >= 'A' && c <= 'Z'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_lower c || is_upper c || is_digit c || c = '\''
let is_op_char c = String.contains "!$%&*+-./:<=>?@^|~" c

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let source_files root =
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
  in
  List.rev (walk root [])

(* One mutable cursor over the buffer; [line]/[bol] track positions so
   every token is stamped without a second scan. *)
type cursor = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the current line's first char *)
  mutable depth : int;
}
(* analysis: domain-local — a cursor lives entirely inside one
   [tokenize] call on one domain; it never escapes. *)

let peek cur k = if cur.pos + k < cur.len then Some cur.src.[cur.pos + k] else None

let advance cur =
  (if cur.pos < cur.len && cur.src.[cur.pos] = '\n' then begin
     cur.line <- cur.line + 1;
     cur.bol <- cur.pos + 1
   end);
  cur.pos <- cur.pos + 1

let advance_n cur n =
  for _ = 1 to n do
    advance cur
  done

(* Skip a nested comment starting at "(*"; returns the end position.
   String literals inside comments protect a closing "*)". *)
let skip_comment cur =
  let start = cur.pos in
  advance_n cur 2;
  let depth = ref 1 in
  let in_string = ref false in
  while !depth > 0 && cur.pos < cur.len do
    let c = cur.src.[cur.pos] in
    if !in_string then begin
      if c = '\\' then advance_n cur 2
      else begin
        if c = '"' then in_string := false;
        advance cur
      end
    end
    else if c = '(' && peek cur 1 = Some '*' then begin
      incr depth;
      advance_n cur 2
    end
    else if c = '*' && peek cur 1 = Some ')' then begin
      decr depth;
      advance_n cur 2
    end
    else begin
      if c = '"' then in_string := true;
      advance cur
    end
  done;
  String.sub cur.src start (cur.pos - start)

let skip_string cur =
  advance cur;
  let fin = ref false in
  while (not !fin) && cur.pos < cur.len do
    match cur.src.[cur.pos] with
    | '\\' -> advance_n cur 2
    | '"' ->
      advance cur;
      fin := true
    | _ -> advance cur
  done

(* {|...|} / {id|...|id} quoted string. The cursor sits on '{';
   returns true iff this really was a quoted string. *)
let try_quoted_string cur =
  let j = ref (cur.pos + 1) in
  while !j < cur.len && is_lower cur.src.[!j] do
    incr j
  done;
  if !j < cur.len && cur.src.[!j] = '|' then begin
    let id = String.sub cur.src (cur.pos + 1) (!j - cur.pos - 1) in
    let closing = "|" ^ id ^ "}" in
    let clen = String.length closing in
    advance_n cur (!j - cur.pos + 1);
    let fin = ref false in
    while (not !fin) && cur.pos < cur.len do
      if
        cur.src.[cur.pos] = '|'
        && cur.pos + clen <= cur.len
        && String.sub cur.src cur.pos clen = closing
      then begin
        advance_n cur clen;
        fin := true
      end
      else advance cur
    done;
    true
  end
  else false

(* ['x'] / ['\n'] / ['\123'] are literals; ['a] is a type variable.
   The cursor sits on the quote. Returns true iff a literal was
   consumed. *)
let try_char_literal cur =
  match peek cur 1 with
  | Some '\\' ->
    let j = ref (cur.pos + 2) in
    while !j < cur.len && cur.src.[!j] <> '\'' && !j - cur.pos <= 5 do
      incr j
    done;
    if !j < cur.len && cur.src.[!j] = '\'' then begin
      advance_n cur (!j - cur.pos + 1);
      true
    end
    else begin
      advance cur;
      false
    end
  | Some _ when peek cur 2 = Some '\'' ->
    advance_n cur 3;
    true
  | _ ->
    advance cur;
    false

let number cur =
  let start = cur.pos in
  let is_float = ref false in
  (match (peek cur 0, peek cur 1) with
  | Some '0', Some ('x' | 'X' | 'o' | 'O' | 'b' | 'B') ->
    advance_n cur 2;
    while
      cur.pos < cur.len
      && (is_digit cur.src.[cur.pos]
         || (cur.src.[cur.pos] >= 'a' && cur.src.[cur.pos] <= 'f')
         || (cur.src.[cur.pos] >= 'A' && cur.src.[cur.pos] <= 'F')
         || cur.src.[cur.pos] = '_')
    do
      advance cur
    done
  | _ ->
    while cur.pos < cur.len && (is_digit cur.src.[cur.pos] || cur.src.[cur.pos] = '_') do
      advance cur
    done;
    if cur.pos < cur.len && cur.src.[cur.pos] = '.' then begin
      (* [1.] and [1.5] are floats, but [1..] never occurs and
         [x.(i)]-style access cannot start with a digit. *)
      is_float := true;
      advance cur;
      while cur.pos < cur.len && (is_digit cur.src.[cur.pos] || cur.src.[cur.pos] = '_') do
        advance cur
      done
    end;
    (match peek cur 0 with
    | Some ('e' | 'E') ->
      let k = match peek cur 1 with Some ('+' | '-') -> 2 | _ -> 1 in
      (match peek cur k with
      | Some c when is_digit c ->
        is_float := true;
        advance_n cur k;
        while cur.pos < cur.len && (is_digit cur.src.[cur.pos] || cur.src.[cur.pos] = '_') do
          advance cur
        done
      | _ -> ())
    | _ -> ()));
  (* int-literal suffixes *)
  (match peek cur 0 with
  | Some ('l' | 'L' | 'n') when not !is_float -> advance cur
  | _ -> ());
  (String.sub cur.src start (cur.pos - start), !is_float)

let tokenize src =
  let cur = { src; len = String.length src; pos = 0; line = 1; bol = 0; depth = 0 } in
  let out = ref [] in
  let emit kind text ~line ~end_line ~col ~depth =
    out := { kind; text; line; end_line; col; depth } :: !out
  in
  while cur.pos < cur.len do
    let c = cur.src.[cur.pos] in
    let line = cur.line and col = cur.pos - cur.bol and depth = cur.depth in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then advance cur
    else if c = '(' && peek cur 1 = Some '*' then begin
      let text = skip_comment cur in
      emit Comment text ~line ~end_line:cur.line ~col ~depth
    end
    else if c = '"' then begin
      skip_string cur;
      emit String "\"" ~line ~end_line:cur.line ~col ~depth
    end
    else if c = '{' && try_quoted_string cur then
      emit String "\"" ~line ~end_line:cur.line ~col ~depth
    else if c = '\'' && (cur.pos = 0 || not (is_ident_char cur.src.[cur.pos - 1])) then begin
      if try_char_literal cur then emit Char "'" ~line ~end_line:line ~col ~depth
      (* else: type variable quote, already advanced past — drop it *)
    end
    else if is_digit c then begin
      let text, is_float = number cur in
      emit (if is_float then Float else Int) text ~line ~end_line:line ~col ~depth
    end
    else if is_lower c || is_upper c then begin
      let start = cur.pos in
      while cur.pos < cur.len && is_ident_char cur.src.[cur.pos] do
        advance cur
      done;
      let text = String.sub cur.src start (cur.pos - start) in
      emit (if is_upper c then Uident else Ident) text ~line ~end_line:line ~col ~depth
    end
    else if is_op_char c then begin
      let start = cur.pos in
      while cur.pos < cur.len && is_op_char cur.src.[cur.pos] do
        advance cur
      done;
      emit Op (String.sub cur.src start (cur.pos - start)) ~line ~end_line:line ~col ~depth
    end
    else begin
      (match c with
      | '(' | '[' | '{' -> cur.depth <- cur.depth + 1
      | ')' | ']' | '}' -> cur.depth <- Stdlib.max 0 (cur.depth - 1)
      | _ -> ());
      advance cur;
      emit Punct (String.make 1 c) ~line ~end_line:line ~col ~depth
    end
  done;
  Array.of_list (List.rev !out)
