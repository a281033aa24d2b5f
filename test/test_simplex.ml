(* Direct tests of the simplex core on standard-form inputs — below
   the modelling facade, exercising phase 1/phase 2, the crash basis,
   both pricing rules, and the float instantiation. *)

module Sx = Lp_oracle.Simplex.Exact
module Sf = Lp_oracle.Simplex.Floating

let q = Rat.of_ints
let rat = Alcotest.testable Rat.pp Rat.equal

let solve ?pricing ?crash a b c =
  let to_r = List.map (List.map (fun (x, y) -> q x y)) in
  let a = Array.of_list (List.map Array.of_list (to_r a)) in
  let b = Array.of_list (List.map (fun (x, y) -> q x y) b) in
  let c = Array.of_list (List.map (fun (x, y) -> q x y) c) in
  Sx.solve_standard ?pricing ?crash ~a ~b ~c ()

(* --------------------------------------------------------------- *)
(* Standard-form basics                                             *)
(* --------------------------------------------------------------- *)

let test_already_standard () =
  (* min x0 + x1  s.t.  x0 + x1 = 2  =>  objective 2 *)
  match solve [ [ (1, 1); (1, 1) ] ] [ (2, 1) ] [ (1, 1); (1, 1) ] with
  | Sx.Optimal (obj, x) ->
    Alcotest.check rat "objective" (q 2 1) obj;
    Alcotest.check rat "feasibility" (q 2 1) (Rat.add x.(0) x.(1))
  | _ -> Alcotest.fail "optimal expected"

let test_negative_rhs_normalization () =
  (* -x0 = -3 is x0 = 3 after sign normalization. *)
  match solve [ [ (-1, 1) ] ] [ (-3, 1) ] [ (1, 1) ] with
  | Sx.Optimal (obj, x) ->
    Alcotest.check rat "objective" (q 3 1) obj;
    Alcotest.check rat "x0" (q 3 1) x.(0)
  | _ -> Alcotest.fail "optimal expected"

let test_infeasible_standard () =
  (* x0 = 1 and x0 = 2 simultaneously. *)
  match solve [ [ (1, 1) ]; [ (1, 1) ] ] [ (1, 1); (2, 1) ] [ (0, 1) ] with
  | Sx.Failed Sx.Solver_error.Infeasible -> ()
  | _ -> Alcotest.fail "infeasible expected"

let test_unbounded_standard () =
  (* min -x0 with x0 - x1 = 0: x0 can grow with x1. *)
  match solve [ [ (1, 1); (-1, 1) ] ] [ (0, 1) ] [ (-1, 1); (0, 1) ] with
  | Sx.Failed Sx.Solver_error.Unbounded -> ()
  | _ -> Alcotest.fail "unbounded expected"

let test_zero_rows_zero_cols () =
  (* No constraints at all: min of a nonnegative combination is 0. *)
  let a : Rat.t array array = [||] in
  match Sx.solve_standard ~a ~b:[||] ~c:[| Rat.one; Rat.two |] () with
  | Sx.Optimal (obj, _) -> Alcotest.check rat "zero" Rat.zero obj
  | _ -> Alcotest.fail "optimal expected"

let test_check_feasible () =
  let a = [| [| Rat.one; Rat.one |] |] in
  let b = [| Rat.two |] in
  Alcotest.(check bool) "good point" true (Sx.check_feasible ~a ~b [| Rat.one; Rat.one |]);
  Alcotest.(check bool) "violates equality" false (Sx.check_feasible ~a ~b [| Rat.one; Rat.two |]);
  Alcotest.(check bool) "negative coordinate" false
    (Sx.check_feasible ~a ~b [| Rat.of_ints 5 2; Rat.of_ints (-1) 2 |])

(* --------------------------------------------------------------- *)
(* Pricing / crash configurations agree                             *)
(* --------------------------------------------------------------- *)

let random_standard_form rng nvars nrows =
  (* Random equalities with a known feasible point: pick x* >= 0 and
     set b = A x*, guaranteeing feasibility; objective random. *)
  let a =
    Array.init nrows (fun _ -> Array.init nvars (fun _ -> q (Prob.Rng.int rng 7) 1))
  in
  let xstar = Array.init nvars (fun _ -> q (Prob.Rng.int rng 5) 1) in
  let b =
    Array.map
      (fun row ->
        let acc = ref Rat.zero in
        Array.iteri (fun j v -> acc := Rat.add !acc (Rat.mul v xstar.(j))) row;
        !acc)
      a
  in
  let c = Array.init nvars (fun _ -> q (1 + Prob.Rng.int rng 9) 1) in
  (a, b, c)

let test_configurations_agree_random () =
  let rng = Prob.Rng.of_int 1234 in
  for _ = 1 to 50 do
    let nvars = 2 + Prob.Rng.int rng 4 and nrows = 1 + Prob.Rng.int rng 3 in
    let a, b, c = random_standard_form rng nvars nrows in
    let results =
      [
        Sx.solve_standard ~pricing:Sx.Dantzig_lex ~crash:true ~a ~b ~c ();
        Sx.solve_standard ~pricing:Sx.Dantzig_lex ~crash:false ~a ~b ~c ();
        Sx.solve_standard ~pricing:Sx.Bland ~crash:true ~a ~b ~c ();
        Sx.solve_standard ~pricing:Sx.Bland ~crash:false ~a ~b ~c ();
      ]
    in
    match results with
    | Sx.Optimal (obj0, x0) :: rest ->
      Alcotest.(check bool) "first solution feasible" true (Sx.check_feasible ~a ~b x0);
      List.iter
        (function
          | Sx.Optimal (obj, x) ->
            if not (Rat.equal obj obj0) then
              Alcotest.failf "objectives disagree: %s vs %s" (Rat.to_string obj) (Rat.to_string obj0);
            Alcotest.(check bool) "feasible" true (Sx.check_feasible ~a ~b x)
          | _ -> Alcotest.fail "status disagrees")
        rest
    | Sx.Failed _ :: _ ->
      (* feasible by construction; min of nonneg costs over a polytope
         may still be unbounded only if a recession direction with
         negative cost exists — costs are positive, so bounded. *)
      Alcotest.fail "must be optimal (feasible by construction, positive costs)"
    | [] -> assert false
  done

(* --------------------------------------------------------------- *)
(* Duals                                                            *)
(* --------------------------------------------------------------- *)

(* The pair (primal, dual) forms a complete optimality certificate:
   primal feasible, dual feasible (c_j − y·A_j >= 0), objectives equal. *)
let check_certificate a b c =
  match Sx.solve_standard_with_duals ~a ~b ~c () with
  | Sx.Optimal (obj, x), Some y ->
    Alcotest.(check bool) "primal feasible" true (Sx.check_feasible ~a ~b x);
    (* strong duality *)
    let yb = ref Rat.zero in
    Array.iteri (fun i bi -> yb := Rat.add !yb (Rat.mul y.(i) bi)) b;
    Alcotest.check rat "strong duality" obj !yb;
    (* dual feasibility *)
    for j = 0 to Array.length c - 1 do
      let ya = ref Rat.zero in
      Array.iteri (fun i row -> ya := Rat.add !ya (Rat.mul y.(i) row.(j))) a;
      if Rat.compare (Rat.sub c.(j) !ya) Rat.zero < 0 then
        Alcotest.failf "dual infeasible at column %d" j
    done;
    (* complementary slackness: x_j > 0 => reduced cost 0 *)
    for j = 0 to Array.length c - 1 do
      if Rat.sign x.(j) > 0 then begin
        let ya = ref Rat.zero in
        Array.iteri (fun i row -> ya := Rat.add !ya (Rat.mul y.(i) row.(j))) a;
        Alcotest.check rat (Printf.sprintf "compl. slackness col %d" j) c.(j) !ya
      end
    done
  | Sx.Optimal _, None -> Alcotest.fail "optimal must come with duals"
  | _ -> Alcotest.fail "optimal expected"

let test_duals_textbook () =
  (* min x0 + 2x1  s.t.  x0 + x1 = 3  =>  x = (3,0), y = 1 *)
  let a = [| [| Rat.one; Rat.one |] |] and b = [| q 3 1 |] and c = [| Rat.one; q 2 1 |] in
  (match Sx.solve_standard_with_duals ~a ~b ~c () with
   | Sx.Optimal (obj, _), Some y ->
     Alcotest.check rat "objective" (q 3 1) obj;
     Alcotest.check rat "dual" Rat.one y.(0)
   | _ -> Alcotest.fail "optimal expected");
  check_certificate a b c

let test_duals_negative_rhs () =
  (* Same LP written with a flipped row: the dual must come back in the
     caller's orientation (y = -1 for the negated row). *)
  let a = [| [| Rat.minus_one; Rat.minus_one |] |] and b = [| q (-3) 1 |] in
  let c = [| Rat.one; q 2 1 |] in
  (match Sx.solve_standard_with_duals ~a ~b ~c () with
   | Sx.Optimal (obj, _), Some y ->
     Alcotest.check rat "objective" (q 3 1) obj;
     Alcotest.check rat "dual sign tracks row orientation" Rat.minus_one y.(0)
   | _ -> Alcotest.fail "optimal expected");
  check_certificate a b c

let test_duals_random_certificates () =
  let rng = Prob.Rng.of_int 20260704 in
  for _ = 1 to 40 do
    let nvars = 2 + Prob.Rng.int rng 4 and nrows = 1 + Prob.Rng.int rng 3 in
    let a, b, c = random_standard_form rng nvars nrows in
    check_certificate a b c
  done

let test_duals_with_slack_columns () =
  (* The facade-style shape: equality rows that include explicit slack
     columns (crash basis adopts them). min x0 s.t. x0 - s = 2. *)
  let a = [| [| Rat.one; Rat.minus_one |] |] and b = [| q 2 1 |] in
  let c = [| Rat.one; Rat.zero |] in
  check_certificate a b c

(* --------------------------------------------------------------- *)
(* Float instantiation                                              *)
(* --------------------------------------------------------------- *)

let test_float_standard () =
  let a = [| [| 1.0; 1.0 |] |] and b = [| 2.0 |] and c = [| 1.0; 3.0 |] in
  match Sf.solve_standard ~a ~b ~c () with
  | Sf.Optimal (obj, x) ->
    Alcotest.(check (float 1e-9)) "objective" 2.0 obj;
    Alcotest.(check (float 1e-9)) "x0 carries it" 2.0 x.(0)
  | _ -> Alcotest.fail "optimal expected"

let test_float_matches_exact_random () =
  let rng = Prob.Rng.of_int 777 in
  for _ = 1 to 30 do
    let nvars = 2 + Prob.Rng.int rng 3 and nrows = 1 + Prob.Rng.int rng 2 in
    let a, b, c = random_standard_form rng nvars nrows in
    let fa = Array.map (Array.map Rat.to_float) a in
    let fb = Array.map Rat.to_float b in
    let fc = Array.map Rat.to_float c in
    match (Sx.solve_standard ~a ~b ~c (), Sf.solve_standard ~a:fa ~b:fb ~c:fc ()) with
    | Sx.Optimal (obj, _), Sf.Optimal (fobj, _) ->
      if Float.abs (Rat.to_float obj -. fobj) > 1e-6 then
        Alcotest.failf "mismatch: exact %s float %f" (Rat.to_string obj) fobj
    | _ -> Alcotest.fail "both optimal (feasible by construction)"
  done

let () =
  Alcotest.run "simplex"
    [
      ( "standard-form",
        [
          Alcotest.test_case "equalities" `Quick test_already_standard;
          Alcotest.test_case "rhs normalization" `Quick test_negative_rhs_normalization;
          Alcotest.test_case "infeasible" `Quick test_infeasible_standard;
          Alcotest.test_case "unbounded" `Quick test_unbounded_standard;
          Alcotest.test_case "empty problem" `Quick test_zero_rows_zero_cols;
          Alcotest.test_case "check_feasible" `Quick test_check_feasible;
        ] );
      ( "configurations",
        [ Alcotest.test_case "all agree on random LPs" `Slow test_configurations_agree_random ] );
      ( "duals",
        [
          Alcotest.test_case "textbook" `Quick test_duals_textbook;
          Alcotest.test_case "negative rhs orientation" `Quick test_duals_negative_rhs;
          Alcotest.test_case "random certificates" `Slow test_duals_random_certificates;
          Alcotest.test_case "slack columns" `Quick test_duals_with_slack_columns;
        ] );
      ( "float",
        [
          Alcotest.test_case "float standard form" `Quick test_float_standard;
          Alcotest.test_case "float tracks exact" `Slow test_float_matches_exact_random;
        ] );
    ]
