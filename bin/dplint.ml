(* dplint — privacy-invariant static analyzer for the minimax-DP tree.

   Subcommands:
     check-mech       certify row-stochasticity, alpha-DP (Def. 2), Theorem-2
                      derivability, and the constructive factorization of a
                      mechanism matrix (from a file or --geometric)
     check-derivable  certify Theorem 2 / Lemma 3: derivability of a matrix
                      (or of G(n,beta)) from G(n,alpha)
     lint-src         scan OCaml sources for exactness-hostile patterns
                      (Obj.magic, bare `with _ ->`, float-literal =,
                      mli-less lib modules)
     analyze          cross-module analysis over the serving tree:
                      domain-safety, float taint of the exact core, and
                      serve-path determinism; any error fails it

   Every verdict is available as JSON (--json); violations carry exact
   rational witnesses, passes carry replayable certificates. Exit code
   0 = everything certified, 1 = violations found. *)

open Cmdliner

let rat_conv =
  let parse s =
    match Rat.of_string_opt s with
    | Some r -> Ok r
    | None -> Error (`Msg (Printf.sprintf "not a rational: %S (use p/q or decimals)" s))
  in
  Arg.conv (parse, fun fmt r -> Format.pp_print_string fmt (Rat.to_string r))

let json_arg =
  let doc = "Emit the verdict as JSON on stdout instead of the human rendering." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* --trace / --metrics: install an ambient Obs recorder for the whole
   command and dump it on exit (same contract as dpopt). *)
let obs_term =
  let trace =
    let doc =
      "Record spans and counters and write a Chrome trace-event file on exit \
       (load it in chrome://tracing or Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc = "Print counters and histograms to stderr on exit." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let setup trace metrics =
    if trace <> None || metrics then begin
      let r = Obs.create () in
      Obs.set_current (Some r);
      at_exit (fun () ->
        Obs.set_current None;
        (match trace with
         | Some file -> Obs.write_chrome_trace r file
         | None -> ());
        if metrics then prerr_string (Obs.render_text r))
    end
  in
  Term.(const setup $ trace $ metrics)

let n_arg =
  let doc = "Range bound for --geometric; mechanisms act on {0..N}." in
  Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc)

let alpha_arg =
  let doc = "Privacy parameter α, a rational in (0,1)." in
  Arg.(value & opt rat_conv (Rat.of_ints 1 2) & info [ "a"; "alpha" ] ~docv:"ALPHA" ~doc)

let geometric_arg =
  let doc = "Analyze the geometric mechanism G(N,ALPHA) instead of reading a file." in
  Arg.(value & flag & info [ "geometric" ] ~doc)

let file_arg =
  let doc = "Mechanism matrix file: one row per line, entries as rationals; '#' comments." in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

(* ----------------------------------------------------------------- *)
(* Matrix input                                                      *)
(* ----------------------------------------------------------------- *)

let load_matrix path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let rows =
    lines
    |> List.map (fun l -> match String.index_opt l '#' with Some i -> String.sub l 0 i | None -> l)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun line ->
           line
           |> String.split_on_char ' '
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun s -> s <> "")
           |> List.map (fun s ->
                  match Rat.of_string_opt s with
                  | Some r -> r
                  | None -> raise (Invalid_argument (Printf.sprintf "bad matrix entry %S" s))))
  in
  match rows with
  | [] -> Error "empty matrix file"
  | _ -> Ok (Array.of_list (List.map Array.of_list rows))

let matrix_of_args ~geometric ~n ~alpha ~file =
  if geometric then
    if n < 1 then Error "need -n >= 1"
    else begin
      match Mech.Geometric.matrix ~n ~alpha with
      | m -> Ok (Mech.Mechanism.matrix m)
      | exception Invalid_argument msg -> Error msg
    end
  else
    match file with
    | None -> Error "need either --geometric or a matrix FILE"
    | Some path -> ( try load_matrix path with Invalid_argument msg -> Error msg)

(* ----------------------------------------------------------------- *)
(* Output                                                            *)
(* ----------------------------------------------------------------- *)

(* Exit 1 on violations (distinct from cmdliner's 124 for CLI misuse). *)
let render_reports ~json reports =
  if json then print_endline (Check.Json.to_string (Check.Invariants.summary_to_json reports))
  else
    List.iter
      (fun r -> Format.printf "%a@." Check.Invariants.pp_report r)
      reports;
  if Check.Invariants.all_passed reports then `Ok ()
  else begin
    if not json then prerr_endline "dplint: violations found";
    exit 1
  end

(* ----------------------------------------------------------------- *)
(* check-mech                                                        *)
(* ----------------------------------------------------------------- *)

let deadline_arg =
  let doc =
    "Wall-clock budget in milliseconds. The deadline is re-checked between invariant \
     rules; rules that no longer fit are skipped and reported (a skipped rule is not a \
     certification, so the exit code is still 1)."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let check_mech_cmd =
  let run () geometric n alpha file json deadline_ms =
    match matrix_of_args ~geometric ~n ~alpha ~file with
    | Error m -> `Error (false, m)
    | Ok matrix -> (
      match deadline_ms with
      | None -> render_reports ~json (Check.Invariants.check_mech ~alpha matrix)
      | Some ms ->
        (* The same rules check_mech runs, as thunks, so the deadline
           can be consulted before each one. *)
        let module I = Check.Invariants in
        let rules =
          [
            ("row-stochastic", fun () -> I.row_stochastic matrix);
            ("alpha-dp", fun () -> I.alpha_dp ~alpha matrix);
            ("derivable", fun () -> I.derivability ~alpha matrix);
            ("factorization", fun () -> I.factorization ~alpha matrix);
          ]
        in
        let budget = Resilience.Budget.make ~deadline_ms:ms () in
        let reports, skipped =
          List.fold_left
            (fun (done_, skipped) (name, rule) ->
              match Resilience.Budget.check budget ~pivots:0 ~peak_bits:0 with
              | Some _ -> (done_, name :: skipped)
              | None -> (rule () :: done_, skipped))
            ([], []) rules
        in
        let reports = List.rev reports and skipped = List.rev skipped in
        if json then
          print_endline
            (Check.Json.to_string
               (Check.Json.Obj
                  [
                    ("summary", I.summary_to_json reports);
                    ("skipped", Check.Json.List (List.map (fun s -> Check.Json.Str s) skipped));
                  ]))
        else begin
          List.iter (fun r -> Format.printf "%a@." I.pp_report r) reports;
          if skipped <> [] then
            Printf.printf "deadline expired after %dms; skipped: %s\n" ms
              (String.concat ", " skipped)
        end;
        if I.all_passed reports && skipped = [] then `Ok ()
        else begin
          if not json then prerr_endline "dplint: violations found or rules skipped";
          exit 1
        end)
  in
  let term =
    Term.(
      ret
        (const run $ obs_term $ geometric_arg $ n_arg $ alpha_arg $ file_arg $ json_arg
       $ deadline_arg))
  in
  Cmd.v
    (Cmd.info "check-mech"
       ~doc:
         "Certify a mechanism matrix: row-stochasticity, α-differential privacy \
          (Definition 2), Theorem-2 derivability, and the constructive factorization \
          T = G⁻¹·M. Violations carry exact rational witnesses. With --deadline-ms, \
          the deadline is re-checked between rules and late rules are skipped (and \
          reported).")
    term

(* ----------------------------------------------------------------- *)
(* check-derivable                                                   *)
(* ----------------------------------------------------------------- *)

let check_derivable_cmd =
  let beta_arg =
    let doc =
      "With --geometric: certify Lemma 3, i.e. that G(N,BETA) is derivable from \
       G(N,ALPHA) through a stochastic transition (needs ALPHA <= BETA)."
    in
    Arg.(value & opt (some rat_conv) None & info [ "b"; "beta" ] ~docv:"BETA" ~doc)
  in
  let run () geometric n alpha beta file json =
    match (geometric, beta) with
    | true, Some beta -> (
      match Check.Invariants.lemma3_transition ~n ~alpha ~beta with
      | report -> render_reports ~json [ report ]
      | exception Invalid_argument m -> `Error (false, m))
    | _ -> (
      match matrix_of_args ~geometric ~n ~alpha:(Option.value beta ~default:alpha) ~file with
      | Error m -> `Error (false, m)
      | Ok matrix -> render_reports ~json (Check.Invariants.check_derivable ~alpha matrix))
  in
  let term =
    Term.(
      ret
        (const run $ obs_term $ geometric_arg $ n_arg $ alpha_arg $ beta_arg $ file_arg
       $ json_arg))
  in
  Cmd.v
    (Cmd.info "check-derivable"
       ~doc:
         "Certify Theorem-2 derivability from the geometric mechanism — of a matrix file, \
          or (with --geometric --beta) Lemma 3's cascade transition G(n,α)⁻¹·G(n,β).")
    term

(* ----------------------------------------------------------------- *)
(* lint-src                                                          *)
(* ----------------------------------------------------------------- *)

let lint_src_cmd =
  let roots_arg =
    let doc =
      "Directories to scan; a root named 'lib' also gets the library-only rules \
       (print-stdout, assert-false, missing-mli)."
    in
    Arg.(non_empty & pos_all dir [] & info [] ~docv:"DIR" ~doc)
  in
  let run () roots json =
    let diags = Analysis.Lint.scan_roots roots in
    if json then
      print_endline
        (Check.Json.to_string
           (Check.Json.Obj
              [
                ("tool", Check.Json.Str "dplint");
                ("ok", Check.Json.Bool (diags = []));
                ("diagnostics", Check.Json.List (List.map Check.Diagnostic.to_json diags));
              ]))
    else begin
      List.iter (fun d -> Format.printf "%a@." Check.Diagnostic.pp d) diags;
      if diags = [] then
        Printf.printf "lint-src: clean (%s)\n" (String.concat " " roots)
    end;
    if diags = [] then `Ok ()
    else begin
      if not json then prerr_endline "dplint: lint violations found";
      exit 1
    end
  in
  let term = Term.(ret (const run $ obs_term $ roots_arg $ json_arg)) in
  Cmd.v
    (Cmd.info "lint-src"
       ~doc:
         "Scan OCaml sources for exactness-hostile patterns (Obj.magic, bare \
          `try … with _ ->`, float-literal (in)equality, …); the full rule list is in \
          DESIGN.md §4b.")
    term

(* ----------------------------------------------------------------- *)
(* analyze                                                           *)
(* ----------------------------------------------------------------- *)

let analyze_cmd =
  let roots_arg =
    let doc = "Directories to scan (default: lib bin)." in
    Arg.(value & pos_all string [] & info [] ~docv:"DIR" ~doc)
  in
  let core_arg =
    let doc = "Override an exact-core directory for the float-taint pass (repeatable)." in
    Arg.(value & opt_all string [] & info [ "core" ] ~docv:"DIR" ~doc)
  in
  let serve_arg =
    let doc = "Override a serve-path root for the determinism pass (repeatable)." in
    Arg.(value & opt_all string [] & info [ "serve-root" ] ~docv:"PATH" ~doc)
  in
  let clock_arg =
    let doc = "Override a wall-clock-exempt directory (repeatable)." in
    Arg.(value & opt_all string [] & info [ "clock-exempt" ] ~docv:"DIR" ~doc)
  in
  let run () roots json core serve clock =
    let dflt = Analysis.default_config in
    let or_default custom dflt = if custom = [] then dflt else custom in
    let cfg =
      {
        Analysis.roots = or_default roots dflt.Analysis.roots;
        core_dirs = or_default core dflt.Analysis.core_dirs;
        serve_roots = or_default serve dflt.Analysis.serve_roots;
        clock_exempt = or_default clock dflt.Analysis.clock_exempt;
      }
    in
    let o = Analysis.run cfg in
    if json then
      print_endline
        (Check.Json.to_string
           (Check.Json.Obj
              [
                ("tool", Check.Json.Str "dplint");
                ("ok", Check.Json.Bool (o.Analysis.errors = 0));
                ("report", Analysis.to_json o);
              ]))
    else begin
      List.iter (fun d -> Format.printf "%a@." Check.Diagnostic.pp d) o.Analysis.diagnostics;
      Printf.printf "analyze: %d files, %d errors, %d warnings\n" o.Analysis.files
        o.Analysis.errors o.Analysis.warnings
    end;
    if o.Analysis.errors = 0 then `Ok ()
    else begin
      if not json then prerr_endline "dplint: analysis violations found";
      exit 1
    end
  in
  let term =
    Term.(
      ret
        (const run $ obs_term $ roots_arg $ json_arg $ core_arg $ serve_arg $ clock_arg))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Cross-module static analysis over the serving tree: domain-safety \
          (unguarded top-level mutable state reachable from Domain.spawn), float \
          taint of the exact ℚ core, and serve-path determinism (wall clocks, \
          Random.self_init, Hashtbl iteration order), plus waiver hygiene. Exit \
          code: 0 iff there is no error-severity diagnostic, 1 otherwise; warnings \
          do not affect the exit code.")
    term

(* ----------------------------------------------------------------- *)
(* main                                                              *)
(* ----------------------------------------------------------------- *)

let main =
  let doc = "privacy-invariant static analyzer for the minimax-DP reproduction" in
  Cmd.group
    (Cmd.info "dplint" ~version:"1.0.0" ~doc)
    [ check_mech_cmd; check_derivable_cmd; lint_src_cmd; analyze_cmd ]

let () = exit (Cmd.eval main)
