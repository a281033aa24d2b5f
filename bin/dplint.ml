(* dplint — privacy-invariant static analyzer for the minimax-DP tree.

   Subcommands:
     check-mech       certify row-stochasticity, alpha-DP (Def. 2), Theorem-2
                      derivability, and the constructive factorization of a
                      mechanism matrix (from a file or --geometric)
     check-derivable  certify Theorem 2 / Lemma 3: derivability of a matrix
                      (or of G(n,beta)) from G(n,alpha)
     check            check OCaml sources: the lint rules (Obj.magic, bare
                      `with _ ->`, float-literal =, mli-less lib modules, …)
                      and the cross-module passes over lib/ and bin/
                      (domain safety, float taint of the exact core,
                      serve-path determinism, waiver hygiene)

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

let check_mech_cmd =
  let run () geometric n alpha file json =
    match matrix_of_args ~geometric ~n ~alpha ~file with
    | Error m -> `Error (false, m)
    | Ok matrix -> render_reports ~json (Check.Invariants.check_mech ~alpha matrix)
  in
  let term =
    Term.(ret (const run $ obs_term $ geometric_arg $ n_arg $ alpha_arg $ file_arg $ json_arg))
  in
  Cmd.v
    (Cmd.info "check-mech"
       ~doc:
         "Certify a mechanism matrix: row-stochasticity, α-differential privacy \
          (Definition 2), Theorem-2 derivability, and the constructive factorization \
          T = G⁻¹·M. Violations carry exact rational witnesses.")
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
(* check                                                             *)
(* ----------------------------------------------------------------- *)

let check_cmd =
  let roots_arg =
    let doc =
      "Directories to check (default: lib bin test bench examples). A root named 'lib' \
       also gets the library-only lint rules (print-stdout, assert-false, missing-mli); \
       the cross-module passes read only roots named 'lib' or 'bin'."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"DIR" ~doc)
  in
  let run () roots json =
    let config = Analysis.default_config in
    let o =
      Analysis.check (if roots = [] then config else { config with Analysis.roots })
    in
    if json then print_endline (Check.Json.to_string (Analysis.to_json o))
    else begin
      List.iter (fun d -> Format.printf "%a@." Check.Diagnostic.pp d) o.Analysis.diagnostics;
      Printf.printf "check: %d files, %d findings\n" o.Analysis.files
        (List.length o.Analysis.diagnostics)
    end;
    if o.Analysis.diagnostics = [] then `Ok ()
    else begin
      if not json then prerr_endline "dplint: findings";
      exit 1
    end
  in
  let term = Term.(ret (const run $ obs_term $ roots_arg $ json_arg)) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Check OCaml sources: each file is read and lexed once, the lint rules \
          (Obj.magic, bare `try … with _ ->`, float-literal (in)equality, …) run over \
          every root, and the cross-module passes — domain safety (unguarded top-level \
          mutable state reachable from Domain.spawn), float taint of the exact ℚ core, \
          serve-path determinism (wall clocks, Random.self_init, Hashtbl iteration \
          order) and waiver hygiene — over the roots named lib or bin. The rule list \
          is in DESIGN.md §4b and §4g. Exit code: 0 iff there is no finding, 1 \
          otherwise.")
    term

(* ----------------------------------------------------------------- *)
(* main                                                              *)
(* ----------------------------------------------------------------- *)

let main =
  let doc = "privacy-invariant static analyzer for the minimax-DP reproduction" in
  Cmd.group
    (Cmd.info "dplint" ~version:"1.0.0" ~doc)
    [ check_cmd; check_mech_cmd; check_derivable_cmd ]

let () = exit (Cmd.eval main)
