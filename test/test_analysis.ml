(* Golden tests for lib/analysis: `dplint check` (the lint rules, the
   three passes and waiver hygiene) over the fixture mini-tree under
   fixtures/analysis/, and the real tree checking clean. Diagnostics
   are compared byte-for-byte against their rendered form so any drift
   in rules, messages, witnesses or ordering shows up as a diff. *)

module A = Analysis
module D = Check.Diagnostic

(* The fixture tree is copied next to the test binary by the
   (source_tree fixtures) dep; anchor there so `dune exec` from the
   repo root resolves the same relative paths as `dune runtest`. *)
let () = Sys.chdir (Filename.dirname Sys.executable_name)

let cfg =
  {
    A.roots = [ "fixtures/analysis/lib" ];
    core_dirs = [ "fixtures/analysis/lib/exact" ];
    serve_roots = [ "fixtures/analysis/lib/srv" ];
    clock_exempt = [];
  }

let render d = Format.asprintf "%a" D.pp d

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* The full expected output of [check cfg], sorted by (file, line,
   rule). Five files, seventeen findings. The lint rules, with the
   library scope of a root named lib: five modules without an .mli and
   one print to stdout. The passes: two float literals and one operator
   in the exact closure, a wall clock + self_init + hash-order trio on
   the serve path, three unguarded accesses to a spawn-reachable ref
   (two of them under waivers that do not count), and the two waiver
   hygiene findings themselves. *)
let golden =
  [
    "lint/missing-mli @ fixtures/analysis/lib/exact/exact.ml:1: library module \
     has no .mli: its invariants are unpublished and everything is \
     exported";
    "analysis/float-taint @ fixtures/analysis/lib/exact/exact.ml:3: \
     `0.5` inside the dependency closure of the exact core: a float here can \
     leak into \xe2\x84\x9a-exact solvers; use Rat, or add an `(* analysis: \
     float-ok \xe2\x80\x94 <why> *)` waiver at a proven conversion boundary \
     [symbol=0.5; taint_chain=fixtures/analysis/lib/exact/exact.ml]";
    "analysis/float-taint @ fixtures/analysis/lib/exact/exact.ml:4: \
     `*.` inside the dependency closure of the exact core: a float here can \
     leak into \xe2\x84\x9a-exact solvers; use Rat, or add an `(* analysis: \
     float-ok \xe2\x80\x94 <why> *)` waiver at a proven conversion boundary \
     [symbol=*.; taint_chain=fixtures/analysis/lib/exact/exact.ml]";
    "lint/missing-mli @ fixtures/analysis/lib/srv/srv.ml:1: library module \
     has no .mli: its invariants are unpublished and everything is \
     exported";
    "analysis/nondeterminism @ fixtures/analysis/lib/srv/srv.ml:4: \
     `Unix.gettimeofday` reads the wall clock on the serve path; route \
     timing through lib/obs's injectable Obs.Clock so tests stay \
     byte-deterministic, or add an `(* analysis: clock-ok \xe2\x80\x94 <why> \
     *)` waiver [symbol=Unix.gettimeofday; \
     serve_chain=fixtures/analysis/lib/srv/srv.ml]";
    "analysis/nondeterminism @ fixtures/analysis/lib/srv/srv.ml:9: \
     Random.self_init on the serve path destroys seeded determinism and \
     cannot be waived; thread a Prob.Rng stream or an Engine.Seeder split \
     instead [symbol=Random.self_init; \
     serve_chain=fixtures/analysis/lib/srv/srv.ml]";
    "analysis/hash-order @ fixtures/analysis/lib/srv/srv.ml:13: \
     `Hashtbl.iter` iterates in Hashtbl.hash order on the serve path; sort \
     the results (then waive with `(* analysis: order-insensitive \
     \xe2\x80\x94 <why> *)`) or iterate a sorted key list [symbol=Hashtbl.iter; \
     serve_chain=fixtures/analysis/lib/srv/srv.ml]";
    "lint/print-stdout @ fixtures/analysis/lib/srv/srv.ml:13: \
     print_endline writes to stdout from library code; route output \
     through a lib/report sink or a lib/obs recorder instead";
    "lint/missing-mli @ fixtures/analysis/lib/state/state.ml:1: library module \
     has no .mli: its invariants are unpublished and everything is \
     exported";
    "analysis/domain-unsafe @ fixtures/analysis/lib/state/state.ml:10: \
     top-level mutable ref `counter` is used outside any \
     Mutex.protect/lock region in a module reachable from Domain.spawn; \
     guard it, make it Atomic, or add an `(* analysis: domain-local \
     \xe2\x80\x94 <why> *)` waiver [symbol=counter; kind=ref; \
     declared=fixtures/analysis/lib/state/state.ml:5; \
     spawn_chain=fixtures/analysis/lib/worker/worker.ml -> \
     fixtures/analysis/lib/state/state.ml]";
    "analysis/bare-waiver @ fixtures/analysis/lib/state/state.ml:15: \
     bare `analysis: domain-local` waiver: state the reason the finding is \
     safe (e.g. which domain owns the state) after an em dash \
     [symbol=waiver]";
    "analysis/domain-unsafe @ fixtures/analysis/lib/state/state.ml:16: \
     top-level mutable ref `counter` is used outside any \
     Mutex.protect/lock region in a module reachable from Domain.spawn; \
     guard it, make it Atomic, or add an `(* analysis: domain-local \
     \xe2\x80\x94 <why> *)` waiver [symbol=counter; kind=ref; \
     declared=fixtures/analysis/lib/state/state.ml:5; \
     spawn_chain=fixtures/analysis/lib/worker/worker.ml -> \
     fixtures/analysis/lib/state/state.ml]";
    "analysis/unknown-waiver @ \
     fixtures/analysis/lib/state/state.ml:18: unknown analysis waiver tag \
     \"sometag\"; valid tags: domain-local, float-ok, order-insensitive, \
     clock-ok, invariant [symbol=waiver]";
    "analysis/domain-unsafe @ fixtures/analysis/lib/state/state.ml:19: \
     top-level mutable ref `counter` is used outside any \
     Mutex.protect/lock region in a module reachable from Domain.spawn; \
     guard it, make it Atomic, or add an `(* analysis: domain-local \
     \xe2\x80\x94 <why> *)` waiver [symbol=counter; kind=ref; \
     declared=fixtures/analysis/lib/state/state.ml:5; \
     spawn_chain=fixtures/analysis/lib/worker/worker.ml -> \
     fixtures/analysis/lib/state/state.ml]";
    "lint/missing-mli @ fixtures/analysis/lib/util/util.ml:1: library module \
     has no .mli: its invariants are unpublished and everything is \
     exported";
    "analysis/float-taint @ fixtures/analysis/lib/util/util.ml:5: \
     `1.5` inside the dependency closure of the exact core: a float here \
     can leak into \xe2\x84\x9a-exact solvers; use Rat, or add an `(* \
     analysis: float-ok \xe2\x80\x94 <why> *)` waiver at a proven conversion \
     boundary [symbol=1.5; \
     taint_chain=fixtures/analysis/lib/exact/exact.ml -> \
     fixtures/analysis/lib/util/util.ml]";
    "lint/missing-mli @ fixtures/analysis/lib/worker/worker.ml:1: library module \
     has no .mli: its invariants are unpublished and everything is \
     exported";
  ]

let test_golden_tree () =
  let rendered = List.map render ((A.check cfg).A.diagnostics) in
  Alcotest.(check int) "finding count" (List.length golden)
    (List.length rendered);
  List.iteri
    (fun i (want, got) ->
      Alcotest.(check string) (Printf.sprintf "diagnostic %d" i) want got)
    (List.combine golden rendered)

(* Guarded, correctly waived and clock/order-waived sites must be
   silent in the passes' findings: byte-identical output depends on the
   negatives as much as the positives. *)
let test_negatives () =
  let rendered =
    List.filter_map
      (fun (d : D.t) ->
        if String.starts_with ~prefix:"analysis/" d.rule then Some (render d) else None)
      (A.check cfg).A.diagnostics
  in
  let silent_locs =
    [
      "state.ml:8:" (* bump: inside Mutex.protect *);
      "state.ml:13:" (* waived_peek: audited domain-local waiver *);
      "exact.ml:7:" (* boundary: audited float-ok waiver *);
      "srv.ml:7:" (* logged_now: audited clock-ok waiver *);
      "srv.ml:16:" (* sorted: audited order-insensitive waiver *);
      (* the spawn site itself holds no mutable state; it may appear in
         spawn_chain witnesses but never as a location *)
      "@ fixtures/analysis/lib/worker/";
    ]
  in
  List.iter
    (fun loc ->
      List.iter
        (fun line ->
          if contains ~affix:loc line then
            Alcotest.failf "unexpected diagnostic at %s: %s" loc line)
        rendered)
    silent_locs

let test_outcome_counts () =
  let o = A.check cfg in
  Alcotest.(check int) "files" 5 o.A.files;
  Alcotest.(check int) "findings" 17 (List.length o.A.diagnostics)

(* Lexer spot checks: the classifications the passes lean on. *)
let test_lexer () =
  let module L = A.Lexer in
  let kinds src =
    List.filter_map
      (fun (t : L.token) ->
        match t.L.kind with
        | L.Comment -> None
        | k -> Some (k, t.L.text))
      (Array.to_list (L.tokenize src))
  in
  Alcotest.(check bool) "float literal" true
    (List.mem (L.Float, "1e6") (kinds "let x = 1e6"));
  Alcotest.(check bool) "hex stays int" true
    (List.mem (L.Int, "0x10") (kinds "let x = 0x10"));
  Alcotest.(check bool) "float operator is one token" true
    (List.mem (L.Op, "*.") (kinds "let y = a *. b"));
  let comment_toks =
    List.filter
      (fun (t : L.token) -> t.L.kind = L.Comment)
      (Array.to_list
         (L.tokenize "(* outer (* nested *) still outer *) let z = 1"))
  in
  Alcotest.(check int) "nested comment is one token" 1
    (List.length comment_toks);
  let string_toks = kinds "let s = \"0.5 (* not a comment *)\"" in
  Alcotest.(check bool) "floats inside strings don't tokenize" false
    (List.exists (fun (k, _) -> k = A.Lexer.Float) string_toks);
  Alcotest.(check bool) "'\"' is a char literal, not a string opener" true
    (List.mem (L.Float, "1.5") (kinds "let q = '\"' let x = 1.5"));
  let toks = Array.to_list (L.tokenize "(* a \"*)\" b *) let x = 2.5") in
  Alcotest.(check int) "string in comment protects *)" 1
    (List.length (List.filter (fun (t : L.token) -> t.L.kind = L.Comment) toks));
  Alcotest.(check bool) "code after that comment" true
    (List.exists (fun (t : L.token) -> t.L.kind = L.Float && t.L.text = "2.5") toks)

(* Serve-root completeness over the real tree: every file a dpserved
   byte can pass through must be reachable from the lib-side serve
   roots alone, so wiring a new lib/ directory into the daemon without
   adding it (or a root that reaches it) to
   Analysis.default_config.serve_roots turns this red — the
   determinism pass can never silently lose a subsystem. The build
   context keeps the repo's sources next to the test binary, so the
   graph here is the same one `dplint check` sees. *)
let test_serve_roots_cover_dpserved () =
  let anchor p = "../" ^ p in
  let g = A.graph [ "../lib"; "../bin" ] in
  Alcotest.(check bool) "lib/session is a serve root" true
    (List.mem "lib/session" A.default_config.serve_roots);
  let lib_roots =
    List.filter (fun r -> r <> "bin/dpserved.ml") A.default_config.serve_roots
  in
  let root_files =
    List.filter
      (fun p -> A.Modgraph.under ~dirs_or_files:(List.map anchor lib_roots) p)
      (A.Modgraph.paths g)
  in
  Alcotest.(check bool) "serve roots resolve to files" true (root_files <> []);
  let covered = List.map fst (A.Modgraph.closure g ~roots:root_files) in
  let daemon = A.Modgraph.closure g ~roots:[ anchor "bin/dpserved.ml" ] in
  (* Vacuity guard: the daemon's closure must actually resolve through
     the facade into the session subsystem, or the subset check below
     proves nothing. *)
  Alcotest.(check bool) "dpserved's closure reaches lib/session" true
    (List.exists
       (fun (file, _) -> A.Modgraph.under ~dirs_or_files:[ anchor "lib/session" ] file)
       daemon);
  List.iter
    (fun (file, chain) ->
      if file <> anchor "bin/dpserved.ml" && not (List.mem file covered) then
        Alcotest.failf
          "%s feeds dpserved (via %s) but no serve root reaches it; add its lib/ \
           directory to Analysis.default_config.serve_roots"
          file
          (String.concat " -> " chain))
    daemon

(* The default configuration over the repository's lib/ and bin/, next
   to the test directory. *)
let anchor = List.map (fun p -> "../" ^ p)

let tree_cfg =
  let c = A.default_config in
  {
    A.roots = anchor [ "lib"; "bin" ];
    core_dirs = anchor c.core_dirs;
    serve_roots = anchor c.serve_roots;
    clock_exempt = anchor c.clock_exempt;
  }

(* The exact LP core is float-free by construction: with the default
   configuration, the float-taint pass finds nothing under lib/linalg
   or lib/lp. The float field, the float matrices and the float simplex
   live in the test-only lp_oracle library, outside the scanned
   roots. *)
let test_exact_lp_core_float_free () =
  let in_lp_core (d : D.t) =
    match d.location with
    | D.Source_line { file; _ } ->
      A.Modgraph.under ~dirs_or_files:(anchor [ "lib/linalg"; "lib/lp" ]) file
    | _ -> false
  in
  (* Vacuity guard: the scan must actually reach the LP core. *)
  Alcotest.(check bool) "lib/lp/lp.ml scanned" true
    (List.mem "../lib/lp/lp.ml" (A.Modgraph.paths (A.graph tree_cfg.roots)));
  let tainted =
    List.filter
      (fun (d : D.t) -> d.rule = "analysis/float-taint" && in_lp_core d)
      (A.check tree_cfg).A.diagnostics
  in
  List.iter (fun d -> Format.eprintf "%a@." D.pp d) tainted;
  Alcotest.(check int) "float-taint findings under lib/linalg and lib/lp" 0
    (List.length tainted)

(* There is no baseline of accepted findings: `dplint check` over the
   whole of lib/ and bin/ — the lint rules with lib/'s library scope,
   and the passes — reports nothing, so `dune build @lint` fails on the
   first finding that appears. *)
let test_tree_is_clean () =
  let o = A.check tree_cfg in
  List.iter (fun d -> Format.eprintf "%a@." D.pp d) o.A.diagnostics;
  Alcotest.(check bool) "files scanned" true (o.A.files > 50);
  Alcotest.(check int) "findings over lib/ and bin/" 0 (List.length o.A.diagnostics)

(* One entry point, one schema: a scratch tree holding one lint finding
   and one pass finding comes back as one list sorted by location, not
   as the lint's findings followed by the passes'. *)
let test_one_sorted_list () =
  let root = Filename.temp_dir "dplint-check" "" in
  let write rel text =
    let path = Filename.concat root rel in
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
  in
  Sys.mkdir (Filename.concat root "lib") 0o755;
  write "lib/a/dune" "(library (name a))\n";
  write "lib/a/a.mli" "val x : int\n";
  write "lib/a/a.ml" "(* analysis: domain-local *)\nlet x = Obj.magic 1\n";
  let lib = Filename.concat root "lib" in
  let o = A.check { tree_cfg with A.roots = [ lib ] } in
  let a = Filename.concat lib "a/a.ml" in
  Alcotest.(check (list (pair string (pair string int))))
    "pass finding, then lint finding"
    [ ("analysis/bare-waiver", (a, 1)); ("lint/obj-magic", (a, 2)) ]
    (List.map
       (fun (d : D.t) ->
         match d.location with
         | D.Source_line { file; line } -> (d.rule, (file, line))
         | _ -> (d.rule, ("", 0)))
       o.A.diagnostics);
  let head = "{\"tool\":\"dplint\",\"ok\":false,\"files\":1,\"diagnostics\":[" in
  Alcotest.(check string) "one schema" head
    (String.sub (Check.Json.to_string (A.to_json o)) 0 (String.length head));
  List.iter Sys.remove [ a; Filename.concat lib "a/a.mli"; Filename.concat lib "a/dune" ];
  List.iter Sys.rmdir [ Filename.concat lib "a"; lib; root ]

(* The test oracle (exact and float elimination, the tableau simplex,
   the float mirrors) stays test-only: no dune stanza under lib/ or bin/
   names lp_oracle outside a comment. *)
let test_oracle_isolated () =
  let rec dune_files dir =
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then dune_files path @ acc
        else if name = "dune" then path :: acc
        else acc)
      [] (Sys.readdir dir)
  in
  let code path =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.map (fun l -> match String.index_opt l ';' with Some i -> String.sub l 0 i | None -> l)
    |> String.concat "\n"
  in
  let with_stanza = ref 0 in
  List.iter
    (fun path ->
      let text = code path in
      if contains ~affix:"(library" text || contains ~affix:"(executable" text then
        incr with_stanza;
      if contains ~affix:"lp_oracle" text then Alcotest.failf "%s links the test-only lp_oracle" path)
    (dune_files "../lib" @ dune_files "../bin");
  (* Vacuity guard: the walk must actually reach the build stanzas. *)
  Alcotest.(check bool) "library and executable stanzas read" true (!with_stanza > 0)

let () =
  Alcotest.run "analysis"
    [
      ( "fixture-tree",
        [
          Alcotest.test_case "golden diagnostics" `Quick test_golden_tree;
          Alcotest.test_case "negatives stay silent" `Quick test_negatives;
          Alcotest.test_case "outcome counts" `Quick test_outcome_counts;
        ] );
      ( "serve-roots",
        [
          Alcotest.test_case "roots cover dpserved's closure" `Quick
            test_serve_roots_cover_dpserved;
        ] );
      ( "exact-core",
        [
          Alcotest.test_case "lib/linalg and lib/lp float-free" `Quick
            test_exact_lp_core_float_free;
          Alcotest.test_case "no lib/ or bin/ stanza links lp_oracle" `Quick
            test_oracle_isolated;
          Alcotest.test_case "lib/ and bin/ analyze clean" `Quick test_tree_is_clean;
        ] );
      ( "check",
        [
          Alcotest.test_case "lint and pass findings in one sorted list" `Quick
            test_one_sorted_list;
        ] );
      ("lexer", [ Alcotest.test_case "classification" `Quick test_lexer ]);
    ]
