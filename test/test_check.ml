(* Tests for the domain analyzer (lib/check): positive certificates for
   the paper's matrices, exact witnesses for hand-crafted violations,
   and the source-lint scanner's (Analysis.Lint) pattern discrimination. *)

module I = Check.Invariants
module D = Check.Diagnostic
module L = Analysis.Lint

let q = Rat.of_ints

let rat = Alcotest.testable Rat.pp Rat.equal

let geo n alpha = Mech.Mechanism.matrix (Mech.Geometric.matrix ~n ~alpha)

let report_for rule reports =
  match List.find_opt (fun (r : I.report) -> r.rule = rule) reports with
  | Some r -> r
  | None -> Alcotest.failf "no report for rule %s" rule

let witness_rat key (d : D.t) =
  match List.assoc_opt key d.witness with
  | Some v -> (
    match Rat.of_string_opt v with
    | Some r -> r
    | None -> Alcotest.failf "witness %s=%S is not rational" key v)
  | None -> Alcotest.failf "no witness %s" key

(* ------------------------------------------------------------------ *)
(* Positive certificates                                               *)
(* ------------------------------------------------------------------ *)

let test_geometric_certified () =
  List.iter
    (fun (n, alpha) ->
      let reports = I.check_mech ~alpha (geo n alpha) in
      Alcotest.(check bool)
        (Printf.sprintf "G(%d,%s) certified" n (Rat.to_string alpha))
        true (I.all_passed reports);
      (* Every pass must carry a certificate. *)
      List.iter
        (fun (r : I.report) ->
          Alcotest.(check bool) ("certificate for " ^ r.rule) true (r.certificate <> None))
        reports;
      (* The DP certificate's binding slack is exact: G(n,alpha)
         supports exactly its own alpha, no more. *)
      let dp = report_for "alpha-dp" reports in
      match dp.certificate with
      | None -> Alcotest.fail "no alpha-dp certificate"
      | Some c ->
        Alcotest.check rat "privacy level = alpha" alpha
          (match Rat.of_string_opt (List.assoc "privacy_level" c.tight) with
           | Some r -> r
           | None -> Alcotest.fail "bad privacy_level"))
    [ (2, q 1 2); (4, q 1 3); (5, q 2 3); (7, q 3 5) ]

let test_lemma3_certified () =
  List.iter
    (fun (n, a, b) ->
      let r = I.lemma3_transition ~n ~alpha:a ~beta:b in
      Alcotest.(check bool)
        (Printf.sprintf "T_{%s,%s} at n=%d stochastic" (Rat.to_string a) (Rat.to_string b) n)
        true (I.passed r))
    [ (2, q 1 4, q 1 2); (3, q 1 4, q 1 2); (5, q 1 3, q 2 3); (4, q 1 2, q 1 2) ]

let test_lemma3_rejects_backwards () =
  Alcotest.check_raises "alpha > beta"
    (Invalid_argument "Invariants.lemma3_transition: need alpha <= beta")
    (fun () -> ignore (I.lemma3_transition ~n:3 ~alpha:(q 1 2) ~beta:(q 1 4)))

let test_certificates_replayable () =
  let m = geo 3 (q 1 2) in
  (* Same matrix, same digest: certificates are tied to content. *)
  Alcotest.(check string) "digest deterministic" (I.matrix_digest m) (I.matrix_digest (geo 3 (q 1 2)));
  let m' = geo 3 (q 1 3) in
  Alcotest.(check bool) "digest separates" false (I.matrix_digest m = I.matrix_digest m')

(* ------------------------------------------------------------------ *)
(* Exact witnesses for violations                                      *)
(* ------------------------------------------------------------------ *)

let test_row_sum_witness () =
  let m = [| [| q 1 2; q 1 4 |]; [| q 1 4; q 3 4 |] |] in
  let r = I.row_stochastic m in
  Alcotest.(check bool) "fails" false (I.passed r);
  Alcotest.(check bool) "no certificate on failure" true (r.certificate = None);
  match r.diagnostics with
  | [ d ] ->
    (match d.location with
     | D.Matrix_row { row } -> Alcotest.(check int) "row" 0 row
     | _ -> Alcotest.fail "expected a row location");
    Alcotest.check rat "row sum witness" (q 3 4) (witness_rat "row_sum" d)
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

let test_negative_entry_witness () =
  let m = [| [| q 3 2; q (-1) 2 |]; [| q 1 2; q 1 2 |] |] in
  let r = I.row_stochastic m in
  let neg =
    List.find
      (fun (d : D.t) -> List.mem_assoc "entry" d.witness)
      r.diagnostics
  in
  (match neg.location with
   | D.Matrix_cell { row; col } ->
     Alcotest.(check int) "row" 0 row;
     Alcotest.(check int) "col" 1 col
   | _ -> Alcotest.fail "expected a cell location");
  Alcotest.check rat "entry witness" (q (-1) 2) (witness_rat "entry" neg)

(* A ragged matrix, even one whose first row is empty, is refused with
   a "not square" diagnostic per short row, by the standalone rule and
   by the release audit alike. *)
let test_not_square_witness () =
  let ragged = [ [| [||]; [| q 1 2; q 1 2 |] |]; [| [| q 1 2; q 1 2 |]; [| Rat.one |] |] ] in
  List.iter
    (fun m ->
      let r = I.row_stochastic m in
      Alcotest.(check bool) "no certificate" true (r.certificate = None);
      Alcotest.(check (list string)) "one short row" [ "matrix is not square" ]
        (List.map (fun (d : D.t) -> d.message) r.diagnostics);
      match I.audit_release ~alpha:(q 1 2) m with
      | Error r' -> Alcotest.(check bool) "audit stops at row-stochastic" true (r' = r)
      | Ok _ -> Alcotest.fail "ragged matrix certified")
    ragged

let test_dp_witness () =
  (* Perturbed G(2,1/2): row 1 becomes [1/6; 1/2; 1/3]. The first
     violated Definition-2 constraint is rows 0/1, column 0:
     alpha*x(0,0) = 1/2 * 2/3 = 1/3 > 1/6 = x(1,0). *)
  let m =
    [|
      [| q 2 3; q 2 9; q 1 9 |];
      [| q 1 6; q 1 2; q 1 3 |];
      [| q 1 9; q 2 9; q 2 3 |];
    |]
  in
  let r = I.alpha_dp ~alpha:(q 1 2) m in
  Alcotest.(check bool) "fails" false (I.passed r);
  let d = List.hd r.diagnostics in
  (match d.location with
   | D.Adjacent_pair { row; col } ->
     Alcotest.(check int) "row" 0 row;
     Alcotest.(check int) "col" 0 col
   | _ -> Alcotest.fail "expected an adjacent-pair location");
  Alcotest.check rat "lhs = alpha*x_i" (q 1 3) (witness_rat "lhs" d);
  Alcotest.check rat "rhs = x_succ" (q 1 6) (witness_rat "rhs" d)

let test_appendix_b_witness () =
  (* The paper's Appendix-B counterexample: 1/2-DP yet not derivable.
     The known witness (also asserted in test_mech) is column 1,
     middle row 1, slack -1/12. *)
  let m = Mech.Mechanism.matrix (Mech.Derivability.appendix_b_mechanism ()) in
  let alpha = q 1 2 in
  let reports = I.check_mech ~alpha m in
  Alcotest.(check bool) "row-stochastic" true (I.passed (report_for "row-stochastic" reports));
  Alcotest.(check bool) "alpha-dp holds" true (I.passed (report_for "alpha-dp" reports));
  let der = report_for "derivable" reports in
  Alcotest.(check bool) "derivable fails" false (I.passed der);
  let tr =
    List.find
      (fun (d : D.t) ->
        match d.location with D.Column_triple { col = 1; mid = 1 } -> true | _ -> false)
      der.diagnostics
  in
  Alcotest.check rat "slack witness" (q (-1) 12) (witness_rat "slack" tr);
  (* The constructive cross-check must agree. *)
  Alcotest.(check bool) "factorization fails" false (I.passed (report_for "factorization" reports))

let test_monotone_loss () =
  Alcotest.(check bool) "absolute is well-formed" true
    (I.passed (I.monotone_loss ~name:"absolute" ~n:6 (fun i r -> q (abs (i - r)) 1)));
  (* Loss that *rewards* distance: flagged with the offending pair. *)
  let bad i r = if i = r then Rat.zero else q 1 (abs (i - r)) in
  let r = I.monotone_loss ~name:"inverse" ~n:4 bad in
  Alcotest.(check bool) "inverse loss rejected" false (I.passed r);
  let d =
    List.find (fun (d : D.t) -> List.mem_assoc "near_loss" d.witness) r.diagnostics
  in
  Alcotest.(check bool) "witness has far_loss" true (List.mem_assoc "far_loss" d.witness)

(* ------------------------------------------------------------------ *)
(* JSON round-trips (shape smoke tests)                                *)
(* ------------------------------------------------------------------ *)

let test_json_shape () =
  let reports = I.check_mech ~alpha:(q 1 2) (geo 2 (q 1 2)) in
  let s = Check.Json.to_string (I.summary_to_json reports) in
  Alcotest.(check bool) "mentions tool" true
    (Str.string_match (Str.regexp ".*\"tool\":\"dplint\".*") s 0);
  Alcotest.(check bool) "ok true" true
    (Str.string_match (Str.regexp ".*\"ok\":true.*") s 0);
  let bad = I.row_stochastic [| [| q 1 2 |] |] in
  let s_bad = Check.Json.to_string (I.report_to_json bad) in
  Alcotest.(check bool) "ok false" true
    (Str.string_match (Str.regexp ".*\"ok\":false.*") s_bad 0)

let test_json_escape () =
  Alcotest.(check string) "escape" "a\\\"b\\\\c\\nd" (Check.Json.escape "a\"b\\c\nd")

(* ------------------------------------------------------------------ *)
(* Source lint                                                         *)
(* ------------------------------------------------------------------ *)

let rules ds = List.map (fun (d : D.t) -> d.rule) ds
let scan_source ~scope ~file src = L.scan ~scope (Analysis.Modinfo.of_source ~path:file src)
let scan src = scan_source ~scope:L.Other ~file:"t.ml" src

let test_lint_catch_all () =
  let findings = scan "let f x = try g x with _ -> 0\n" in
  Alcotest.(check (list string)) "try flagged" [ "lint/catch-all" ] (rules findings);
  (* match with a default arm is idiomatic, not a swallowed error. *)
  let ok = scan "let f x = match x with Some y -> y | _ -> 0\n" in
  Alcotest.(check (list string)) "match not flagged" [] (rules ok);
  Alcotest.(check (list string)) "quoted string not flagged" []
    (rules (scan "let s = {|try x with _ -> 0|}\n"));
  (* with-arm position is line-accurate *)
  let multi = scan "let f x =\n  try g x\n  with _ -> 0\n" in
  (match multi with
   | [ d ] -> (
     match d.location with
     | D.Source_line { line; _ } -> Alcotest.(check int) "line" 3 line
     | _ -> Alcotest.fail "expected source location")
   | _ -> Alcotest.fail "expected one finding")

let test_lint_obj_magic () =
  let findings = scan "let y = Obj.magic x\n" in
  Alcotest.(check (list string)) "flagged" [ "lint/obj-magic" ] (rules findings);
  let ok = scan "(* Obj.magic would be bad *) let objx = 1\n" in
  Alcotest.(check (list string)) "comment not flagged" [] (rules ok);
  Alcotest.(check (list string)) "quoted string not flagged" []
    (rules (scan "let s = {|Obj.magic|}\n"))

let test_lint_float_eq () =
  let flagged s = rules (scan s) in
  Alcotest.(check (list string)) "if x = lit" [ "lint/float-eq" ]
    (flagged "let f x = if x = 0.5 then 1 else 2\n");
  Alcotest.(check (list string)) "lit = x" [ "lint/float-eq" ]
    (flagged "let f x = 0.5 = x\n");
  Alcotest.(check (list string)) "exponent lit = x" [ "lint/float-eq" ]
    (flagged "let f x = 1e-9 = x\n");
  Alcotest.(check (list string)) "<> lit" [ "lint/float-eq" ]
    (flagged "let f x = x <> 1e-9\n");
  Alcotest.(check (list string)) "binder exempt" [] (flagged "let eps = 1e-9\n");
  Alcotest.(check (list string)) "annotated binder exempt" []
    (flagged "let eps : float = 0.5\n");
  Alcotest.(check (list string)) "optional arg exempt" []
    (flagged "let f ?(eps = 1e-9) x = x +. eps\n");
  Alcotest.(check (list string)) "record field exempt" []
    (flagged "let d = { mass = 0.5; tag = 1 }\n");
  Alcotest.(check (list string)) "parenthesized compare" [ "lint/float-eq" ]
    (flagged "let f x = if (x = 0.5) then 1 else 2\n");
  Alcotest.(check (list string)) "compare after sequence" [ "lint/float-eq" ]
    (flagged "let f a x = ignore a; x = 0.5\n");
  Alcotest.(check (list string)) "record field on its own line exempt" []
    (flagged "let d =\n  { mass = 1;\n    f = 0.5 }\n");
  Alcotest.(check (list string)) "functional update exempt" []
    (flagged "let d r = { r with f = 0.5 }\n");
  Alcotest.(check (list string)) "compare inside a field value" [ "lint/float-eq" ]
    (flagged "let d x = { ok = (x = 0.5) }\n");
  Alcotest.(check (list string)) "<= not flagged" []
    (flagged "let f x = x <= 0.5\n");
  Alcotest.(check (list string)) "int compare not flagged" []
    (flagged "let f x = x = 5\n");
  Alcotest.(check (list string)) "quoted string not flagged" []
    (flagged "let s = {|x = 0.5|}\n")

let test_lint_print_stdout () =
  let flagged ?(scope = L.Lib) s = rules (scan_source ~scope ~file:"t.ml" s) in
  Alcotest.(check (list string)) "print_endline flagged" [ "lint/print-stdout" ]
    (flagged "let f () = print_endline x\n");
  Alcotest.(check (list string)) "Printf.printf flagged" [ "lint/print-stdout" ]
    (flagged "let f () = Printf.printf \"%d\" 1\n");
  Alcotest.(check (list string)) "Format.printf flagged" [ "lint/print-stdout" ]
    (flagged "let f () = Format.printf \"x\"\n");
  (* sprintf/eprintf do not touch stdout *)
  Alcotest.(check (list string)) "sprintf not flagged" []
    (flagged "let s = Printf.sprintf \"%d\" 1\nlet () = Printf.eprintf \"e\"\n");
  (* off outside lib roots, and comments never trip the scanner *)
  Alcotest.(check (list string)) "off outside lib" []
    (flagged ~scope:L.Other "let f () = print_endline x\n");
  Alcotest.(check (list string)) "comment not flagged" []
    (flagged "(* print_endline would be rude *) let x = 1\n")
(* The report/obs tree-level exemption is witnessed by
   [test_lint_own_tree_clean]: lib/report prints through its sinks and
   the checker bans stdout everywhere else under lib/. *)

let test_lint_assert_false () =
  let flagged ?(scope = L.Lib) s = rules (scan_source ~scope ~file:"t.ml" s) in
  let arm = "let f = function Some x -> x | None -> assert false" in
  Alcotest.(check (list string)) "bare assert false flagged" [ "lint/assert-false" ]
    (flagged (arm ^ "\n"));
  (* only an invariant waiver exempts the arm; a plain comment does not *)
  Alcotest.(check (list string)) "plain comment does not exempt" [ "lint/assert-false" ]
    (flagged (arm ^ " (* caller checked *)\n"));
  Alcotest.(check (list string)) "invariant waiver on same line exempt" []
    (flagged (arm ^ " (* analysis: invariant \xe2\x80\x94 the caller checked Some *)\n"));
  Alcotest.(check (list string)) "invariant waiver on previous line exempt" []
    (flagged
       "let f = function\n  | Some x -> x\n\
       \  (* analysis: invariant \xe2\x80\x94 g never returns None *)\n  | None -> assert false\n");
  Alcotest.(check (list string)) "multi-line invariant waiver ending on previous line exempt" []
    (flagged
       "let f = function\n  | Some x -> x\n\
       \  (* analysis: invariant \xe2\x80\x94\n     g never returns None *)\n  | None -> assert false\n");
  Alcotest.(check (list string)) "comment two lines away does not exempt" [ "lint/assert-false" ]
    (flagged "(* far *)\n\nlet f = function Some x -> x | None -> assert false\n");
  (* a bare invariant waiver suppresses nothing and is itself a finding *)
  let bare =
    "let f = function\n  | Some x -> x\n  (* analysis: invariant *)\n  | None -> assert false\n"
  in
  Alcotest.(check (list string)) "bare invariant waiver does not exempt" [ "lint/assert-false" ]
    (flagged bare);
  Alcotest.(check (list (pair string int))) "bare invariant waiver is reported"
    [ ("analysis/bare-waiver", 3) ]
    (List.map
       (fun (suffix, _, line) -> ("analysis/" ^ suffix, line))
       (Analysis.Modinfo.of_source ~path:"t.ml" bare).malformed_waivers);
  (* assert with a real condition is fine, and the rule is off outside lib roots *)
  Alcotest.(check (list string)) "assert cond not flagged" []
    (flagged "let f x = assert (x > 0); x\n");
  Alcotest.(check (list string)) "off outside lib" []
    (flagged ~scope:L.Other (arm ^ "\n"))

let test_lint_unaudited () =
  let src = "let m = Mech.Mechanism.unsafe_of_audited x\n" in
  let flagged file = rules (scan_source ~scope:L.Other ~file src) in
  Alcotest.(check (list string)) "flagged elsewhere" [ "lint/unaudited-mechanism" ]
    (flagged "lib/store/store.ml");
  Alcotest.(check (list string)) "the audited caller is exempt" []
    (flagged "lib/engine/compiled.ml");
  Alcotest.(check (list string)) "a namesake in another library is not" [ "lint/unaudited-mechanism" ]
    (flagged "lib/store/compiled.ml")

let test_lint_comments_and_literals () =
  (* Nothing inside a comment or literal trips a rule, the char literal
     '"' does not open a string, and line numbers survive a multi-line
     comment: only the last line's comparison is real. *)
  let src =
    String.concat "\n"
      [
        "(* outer (* nested \"*)\" Obj.magic *) still outer *)";
        "let s = \"x = 0.5\"";
        "let q = '\"' and nl = '\\n'";
        "type 'a t = 'a list";
        "(* c1";
        "c2 *)";
        "y = 0.5 = z";
        "";
      ]
  in
  let found =
    List.map
      (fun (d : D.t) ->
        match d.location with D.Source_line { line; _ } -> (d.rule, line) | _ -> (d.rule, 0))
      (scan_source ~scope:L.Lib ~file:"t.ml" src)
  in
  Alcotest.(check (list (pair string int))) "one real finding" [ ("lint/float-eq", 7) ] found

let test_lint_own_tree_clean () =
  (* The lint rules must accept the repository they guard, through the
     one entry point that runs them (`dplint check`, which the @lint
     alias enforces at build time). test_analysis's "analyze clean"
     case pins the whole verdict; this one keeps the lint rules'
     witness next to their unit tests. *)
  let roots = [ "../lib"; "../bin" ] in
  let o = Analysis.check { Analysis.default_config with roots } in
  let lint =
    List.filter (fun (d : D.t) -> String.starts_with ~prefix:"lint/" d.rule) o.diagnostics
  in
  List.iter (fun d -> Format.eprintf "%a@." D.pp d) lint;
  Alcotest.(check bool) "files scanned" true (o.files > 50);
  Alcotest.(check int) "lint findings over lib/ and bin/" 0 (List.length lint)

(* ------------------------------------------------------------------ *)
(* Properties: the release audit and the one-division α-DP scan        *)
(* ------------------------------------------------------------------ *)

(* Random square matrices of small non-negative rationals, rows
   normalized to sum 1 unless [raw]; zeros are common, so zero/non-zero
   adjacencies get exercised. *)
let gen_matrix =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    bool >>= fun raw ->
    map
      (fun cells ->
        Array.map
          (fun row ->
            let row = Array.map (fun k -> q k 1) row in
            let sum = Array.fold_left Rat.add Rat.zero row in
            if raw || Rat.is_zero sum then row else Array.map (fun x -> Rat.div x sum) row)
          cells)
      (array_repeat (n + 1) (array_repeat (n + 1) (oneof [ return 0; int_range 1 6 ]))))

let arb_case =
  QCheck.make
    ~print:(fun (alpha, m) ->
      Rat.to_string alpha ^ " "
      ^ String.concat "; "
          (Array.to_list
             (Array.map (fun r -> String.concat " " (Array.to_list (Array.map Rat.to_string r))) m)))
    QCheck.Gen.(
      pair (map2 (fun a b -> q a (a + b)) (int_range 1 6) (int_range 1 6)) gen_matrix)

(* Definition 2 read off directly: both products at every adjacent
   pair, and the strongest supported α as the minimum ratio. *)
let reference_dp ~alpha m =
  let n = Array.length m - 1 in
  let sides = ref [] and level = ref Rat.one in
  for i = 0 to n - 1 do
    for r = 0 to n do
      let a = m.(i).(r) and b = m.(i + 1).(r) in
      if Rat.compare (Rat.mul alpha a) b > 0 then sides := (i, r, "alpha*x_i <= x_succ") :: !sides;
      if Rat.compare (Rat.mul alpha b) a > 0 then sides := (i, r, "alpha*x_succ <= x_i") :: !sides;
      let ratio =
        match (Rat.is_zero a, Rat.is_zero b) with
        | true, true -> Rat.one
        | true, false | false, true -> Rat.zero
        | false, false -> Rat.min (Rat.div a b) (Rat.div b a)
      in
      level := Rat.min !level ratio
    done
  done;
  (List.rev !sides, !level)

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let properties =
  [
    prop "alpha-dp verdicts and level match Definition 2" 300 arb_case (fun (alpha, m) ->
        let r = I.alpha_dp ~alpha m in
        let sides, level = reference_dp ~alpha m in
        let got =
          List.map
            (fun (d : D.t) ->
              match d.location with
              | D.Adjacent_pair { row; col } -> (row, col, List.assoc "side" d.witness)
              | _ -> (-1, -1, ""))
            r.diagnostics
        in
        got = sides
        &&
        match r.certificate with
        | Some c -> sides = [] && Rat.equal level (Rat.of_string (List.assoc "privacy_level" c.tight))
        | None -> sides <> []);
    prop "release audit = the standalone rules, in order" 300 arb_case (fun (alpha, m) ->
        let standalone =
          if I.passed (I.row_stochastic m) then
            [ I.row_stochastic m; I.alpha_dp ~alpha m; I.derivability ~alpha m ]
          else [ I.row_stochastic m ]
        in
        match (I.audit_release ~alpha m, List.find_opt (fun r -> not (I.passed r)) standalone) with
        | Ok certs, None -> certs = List.filter_map (fun (r : I.report) -> r.certificate) standalone
        | Error r, Some first -> r = first
        | _ -> false);
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "check"
    [
      ("properties", properties);
      ( "certificates",
        [
          Alcotest.test_case "geometric certified" `Quick test_geometric_certified;
          Alcotest.test_case "lemma3 certified" `Quick test_lemma3_certified;
          Alcotest.test_case "lemma3 rejects backwards" `Quick test_lemma3_rejects_backwards;
          Alcotest.test_case "digest replayable" `Quick test_certificates_replayable;
        ] );
      ( "witnesses",
        [
          Alcotest.test_case "row sum" `Quick test_row_sum_witness;
          Alcotest.test_case "negative entry" `Quick test_negative_entry_witness;
          Alcotest.test_case "not square" `Quick test_not_square_witness;
          Alcotest.test_case "alpha-dp" `Quick test_dp_witness;
          Alcotest.test_case "appendix B" `Quick test_appendix_b_witness;
          Alcotest.test_case "monotone loss" `Quick test_monotone_loss;
        ] );
      ( "json",
        [
          Alcotest.test_case "shape" `Quick test_json_shape;
          Alcotest.test_case "escape" `Quick test_json_escape;
        ] );
      ( "lint",
        [
          Alcotest.test_case "catch-all" `Quick test_lint_catch_all;
          Alcotest.test_case "obj-magic" `Quick test_lint_obj_magic;
          Alcotest.test_case "float-eq" `Quick test_lint_float_eq;
          Alcotest.test_case "print-stdout" `Quick test_lint_print_stdout;
          Alcotest.test_case "assert-false" `Quick test_lint_assert_false;
          Alcotest.test_case "unaudited-mechanism" `Quick test_lint_unaudited;
          Alcotest.test_case "comments and literals" `Quick test_lint_comments_and_literals;
          Alcotest.test_case "own tree clean" `Quick test_lint_own_tree_clean;
        ] );
    ]
