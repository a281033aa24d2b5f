(* Module-dependency graph; see modgraph.mli. *)

(* ------------------------------------------------------------------ *)
(* Minimal dune-file reader                                            *)
(* ------------------------------------------------------------------ *)

type sexp = Atom of string | L of sexp list

(* Enough of the dune surface syntax for (library ...) and
   (executable[s] ...) stanzas: parens, bare atoms, "quoted" atoms and
   ;-comments. Anything fancier parses as atoms we ignore. *)
let parse_sexps src =
  let n = String.length src in
  let pos = ref 0 in
  let rec skip_ws () =
    if !pos < n then
      match src.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | ';' ->
        while !pos < n && src.[!pos] <> '\n' do
          incr pos
        done;
        skip_ws ()
      | _ -> ()
  in
  let atom () =
    let start = !pos in
    if src.[!pos] = '"' then begin
      incr pos;
      while !pos < n && src.[!pos] <> '"' do
        if src.[!pos] = '\\' then incr pos;
        incr pos
      done;
      if !pos < n then incr pos;
      Atom (String.sub src (start + 1) (!pos - start - 2))
    end
    else begin
      while
        !pos < n
        &&
        match src.[!pos] with
        | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> false
        | _ -> true
      do
        incr pos
      done;
      Atom (String.sub src start (!pos - start))
    end
  in
  let rec expr () =
    skip_ws ();
    if !pos >= n then None
    else if src.[!pos] = '(' then begin
      incr pos;
      let items = ref [] in
      let fin = ref false in
      while not !fin do
        skip_ws ();
        if !pos >= n then fin := true
        else if src.[!pos] = ')' then begin
          incr pos;
          fin := true
        end
        else
          match expr () with
          | Some e -> items := e :: !items
          | None -> fin := true
      done;
      Some (L (List.rev !items))
    end
    else if src.[!pos] = ')' then begin
      incr pos;
      expr ()
    end
    else Some (atom ())
  in
  let out = ref [] in
  let fin = ref false in
  while not !fin do
    match expr () with Some e -> out := e :: !out | None -> fin := true
  done;
  List.rev !out

let field name items =
  List.find_map
    (function
      | L (Atom n :: rest) when n = name ->
        Some (List.filter_map (function Atom a -> Some a | L _ -> None) rest)
      | _ -> None)
    items

(* ------------------------------------------------------------------ *)
(* Units and files                                                     *)
(* ------------------------------------------------------------------ *)

type unit_info = {
  uname : string;
  is_lib : bool;
  deps : string list;
  ufiles : string list;  (* paths of this unit's .ml files *)
}

type t = {
  tbl : (string, Modinfo.t) Hashtbl.t;
  unit_of_path : (string, unit_info) Hashtbl.t;
  lib_by_name : (string, unit_info) Hashtbl.t;
  edge_tbl : (string, string list) Hashtbl.t;
}

(* The units declared by one [dune] file, over [mls], the [.ml] files
   beside it. *)
let units_of_dune dune mls =
  let sexps = parse_sexps (Lexer.read_file dune) in
  List.filter_map
    (function
      | L (Atom "library" :: items) -> (
        match field "name" items with
        | Some [ name ] ->
          Some
            {
              uname = name;
              is_lib = true;
              deps = Option.value ~default:[] (field "libraries" items);
              ufiles = mls;
            }
        | _ -> None)
      | L (Atom ("executable" | "executables") :: items) -> (
        let names =
          match (field "name" items, field "names" items) with
          | Some ns, _ | None, Some ns -> ns
          | None, None -> []
        in
        match names with
        | [] -> None
        | name :: _ ->
          let files =
            match field "modules" items with
            | Some mods ->
              List.filter
                (fun ml ->
                  let base = Filename.remove_extension (Filename.basename ml) in
                  List.exists (fun m -> String.lowercase_ascii m = base) mods)
                mls
            | None -> mls
          in
          Some
            {
              uname = name;
              is_lib = false;
              deps = Option.value ~default:[] (field "libraries" items);
              ufiles = files;
            })
      | _ -> None)
    sexps

(* ------------------------------------------------------------------ *)
(* Reference resolution                                                *)
(* ------------------------------------------------------------------ *)

let cap = String.capitalize_ascii

let module_file unit_ m =
  let base = String.uncapitalize_ascii m ^ ".ml" in
  List.find_opt (fun p -> Filename.basename p = base) unit_.ufiles

(* Resolve one capitalized chain from [file] (in [u]) to in-tree
   target files. *)
let resolve g u file chain =
  let in_unit d rest =
    match rest with
    | sub :: _ -> (
      match module_file d sub with
      | Some p -> [ p ]
      | None -> ( match module_file d d.uname with Some p -> [ p ] | None -> d.ufiles))
    | [] -> ( match module_file d d.uname with Some p -> [ p ] | None -> d.ufiles)
  in
  match chain with
  | [] -> []
  | head :: rest -> (
    (* wrapped-library self reference: Check.Json inside lib check *)
    if u.is_lib && head = cap u.uname && rest <> [] then
      match module_file u (List.hd rest) with
      | Some p when p <> file -> [ p ]
      | _ -> []
    else
      match module_file u head with
      | Some p when p <> file -> [ p ]
      | _ -> (
        match
          List.find_opt
            (fun dep ->
              cap dep = head
              &&
              match Hashtbl.find_opt g.lib_by_name dep with
              | Some _ -> true
              | None -> false)
            u.deps
        with
        | Some dep -> in_unit (Hashtbl.find g.lib_by_name dep) rest
        | None -> []))

(* ------------------------------------------------------------------ *)
(* Build                                                               *)
(* ------------------------------------------------------------------ *)

let build ~dune_files infos =
  let mls = List.sort_uniq compare (List.map (fun (i : Modinfo.t) -> i.path) infos) in
  let units =
    List.sort_uniq compare dune_files
    |> List.concat_map (fun dune ->
           let dir = Filename.dirname dune in
           units_of_dune dune (List.filter (fun f -> Filename.dirname f = dir) mls))
  in
  let by_path = Hashtbl.create 64 in
  List.iter (fun (i : Modinfo.t) -> Hashtbl.replace by_path i.path i) infos;
  let g =
    {
      tbl = Hashtbl.create 64;
      unit_of_path = Hashtbl.create 64;
      lib_by_name = Hashtbl.create 16;
      edge_tbl = Hashtbl.create 64;
    }
  in
  List.iter
    (fun u ->
      if u.is_lib then Hashtbl.replace g.lib_by_name u.uname u;
      List.iter
        (fun p ->
          Hashtbl.replace g.unit_of_path p u;
          Hashtbl.replace g.tbl p (Hashtbl.find by_path p))
        u.ufiles)
    units;
  (* Edges, resolved once per file. *)
  (* analysis: order-insensitive — each key is processed independently
     and the per-file edge lists are sorted before storage. *)
  Hashtbl.iter
    (fun path info ->
      let u = Hashtbl.find g.unit_of_path path in
      let targets =
        List.concat_map (fun (chain, _) -> resolve g u path chain) info.Modinfo.refs
        |> List.sort_uniq compare
        |> List.filter (fun p -> p <> path)
      in
      Hashtbl.replace g.edge_tbl path targets)
    g.tbl;
  g

(* analysis: order-insensitive — the fold feeds an immediate sort. *)
let paths g = Hashtbl.fold (fun k _ acc -> k :: acc) g.tbl [] |> List.sort compare

let info g p = Hashtbl.find_opt g.tbl p
let infos g = List.filter_map (fun p -> info g p) (paths g)
let edges_of g p = Option.value ~default:[] (Hashtbl.find_opt g.edge_tbl p)

let closure g ~roots =
  let chain_of : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if Hashtbl.mem g.tbl r && not (Hashtbl.mem chain_of r) then begin
        Hashtbl.replace chain_of r [ r ];
        Queue.add r q
      end)
    (List.sort compare roots);
  while not (Queue.is_empty q) do
    let p = Queue.pop q in
    let chain = Hashtbl.find chain_of p in
    List.iter
      (fun next ->
        if not (Hashtbl.mem chain_of next) then begin
          Hashtbl.replace chain_of next (chain @ [ next ]);
          Queue.add next q
        end)
      (edges_of g p)
  done;
  (* analysis: order-insensitive — the fold feeds an immediate sort. *)
  Hashtbl.fold (fun p chain acc -> (p, chain) :: acc) chain_of []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let under ~dirs_or_files path =
  List.exists
    (fun d ->
      path = d
      ||
      let d = if Filename.check_suffix d "/" then d else d ^ "/" in
      String.length path > String.length d && String.sub path 0 (String.length d) = d)
    dirs_or_files
