(* The source checker; see analysis.mli. *)

module Lexer = Lexer
module Lint = Lint
module Modinfo = Modinfo
module Modgraph = Modgraph
module Passes = Passes
module D = Check.Diagnostic

type config = {
  roots : string list;
  core_dirs : string list;
  serve_roots : string list;
  clock_exempt : string list;
}

let default_config =
  {
    roots = [ "lib"; "bin"; "test"; "bench"; "examples" ];
    core_dirs = [ "lib/bigint"; "lib/rational"; "lib/linalg"; "lib/lp"; "lib/mech" ];
    serve_roots =
      [
        "lib/server";
        "lib/engine";
        "lib/store";
        "lib/session";
        "lib/minimax_dp";
        "bin/dpserved.ml";
      ];
    clock_exempt = [ "lib/obs" ];
  }

(* The passes read only roots with these basenames: test/ and bench/
   spawn domains freely, and test/fixtures/analysis holds bad waivers on
   purpose. *)
let pass_roots = [ "lib"; "bin" ]

type outcome = { diagnostics : D.t list; files : int }

(* One walk and one lexing per root: [None] when the root is not a
   directory, else its files and the symbol table of each [.ml]. *)
let load root =
  if not (Sys.file_exists root && Sys.is_directory root) then None
  else
    let files = Lexer.source_files root in
    Some
      ( files,
        List.filter_map
          (fun f -> if Filename.check_suffix f ".ml" then Some (Modinfo.of_file f) else None)
          files )

let graph_of loaded =
  Modgraph.build
    ~dune_files:
      (List.concat_map
         (fun (files, _) -> List.filter (fun f -> Filename.basename f = "dune") files)
         loaded)
    (List.concat_map snd loaded)

let graph roots = graph_of (List.filter_map load roots)

let lint root = function
  | None -> [ Lint.missing_dir root ]
  | Some (_, infos) ->
    let scope = if Filename.basename root = "lib" then Lint.Lib else Lint.Other in
    List.concat_map
      (fun (info : Modinfo.t) ->
        Lint.scan ~scope info
        @
        if scope = Lint.Lib && not (Sys.file_exists (info.path ^ "i")) then
          [ Lint.missing_mli info.path ]
        else [])
      infos

let passes config g =
  Obs.span "analysis.domain-safety" (fun () -> Passes.domain_safety g)
  @ Obs.span "analysis.float-taint" (fun () -> Passes.float_taint g ~core:config.core_dirs)
  @ Obs.span "analysis.determinism" (fun () ->
        Passes.determinism g ~serve_roots:config.serve_roots
          ~clock_exempt:config.clock_exempt)
  @ Passes.waiver_hygiene g

let diag_key (d : D.t) =
  let file, line =
    match d.location with D.Source_line { file; line } -> (file, line) | _ -> ("", 0)
  in
  (file, line, d.rule, d.message)

let check config =
  Obs.span "analysis.check" (fun () ->
      let loaded = List.map (fun root -> (root, load root)) config.roots in
      let in_pass_scope (root, l) =
        if List.mem (Filename.basename root) pass_roots then l else None
      in
      let g =
        Obs.span "analysis.graph" (fun () -> graph_of (List.filter_map in_pass_scope loaded))
      in
      let ds =
        List.concat_map (fun (root, l) -> lint root l) loaded @ passes config g
        |> List.sort_uniq (fun a b -> compare (diag_key a, a) (diag_key b, b))
      in
      Obs.incr ~by:(List.length ds) "analysis.findings";
      let files = List.concat_map (fun (_, l) -> Option.fold ~none:[] ~some:snd l) loaded in
      { diagnostics = ds; files = List.length files })

let to_json o =
  Check.Json.Obj
    [
      ("tool", Check.Json.Str "dplint");
      ("ok", Check.Json.Bool (o.diagnostics = []));
      ("files", Check.Json.Int o.files);
      ("diagnostics", Check.Json.List (List.map D.to_json o.diagnostics));
    ]
