(* Analysis driver; see analysis.mli. *)

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
    roots = [ "lib"; "bin" ];
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

type outcome = {
  diagnostics : D.t list;
  errors : int;
  warnings : int;
  files : int;
}

let diag_key (d : D.t) =
  let file, line =
    match d.D.location with
    | D.Source_line { file; line } -> (file, line)
    | _ -> ("", 0)
  in
  (file, line, d.D.rule, d.D.message)

let sort_diags ds =
  List.sort_uniq (fun a b -> compare (diag_key a, a) (diag_key b, b)) ds

let analyze config =
  Obs.span "analysis.run" (fun () ->
      let g =
        Obs.span "analysis.graph" (fun () -> Modgraph.build ~roots:config.roots)
      in
      let ds =
        Obs.span "analysis.domain-safety" (fun () -> Passes.domain_safety g)
        @ Obs.span "analysis.float-taint" (fun () ->
              Passes.float_taint g ~core:config.core_dirs)
        @ Obs.span "analysis.determinism" (fun () ->
              Passes.determinism g ~serve_roots:config.serve_roots
                ~clock_exempt:config.clock_exempt)
        @ Passes.waiver_hygiene g
      in
      (List.length (Modgraph.paths g), sort_diags ds))

let run config =
  let files, diagnostics = analyze config in
  let count sev =
    List.length (List.filter (fun d -> d.D.severity = sev) diagnostics)
  in
  Obs.incr ~by:(List.length diagnostics) "analysis.findings";
  { diagnostics; errors = count D.Error; warnings = count D.Warning; files }

let to_json o =
  Check.Json.Obj
    [
      ("files", Check.Json.Int o.files);
      ("errors", Check.Json.Int o.errors);
      ("warnings", Check.Json.Int o.warnings);
      ("diagnostics", Check.Json.List (List.map D.to_json o.diagnostics));
    ]
