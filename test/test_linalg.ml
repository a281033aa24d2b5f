(* Tests for the functorized linear-algebra layer and the test
   oracle's elimination over it ([Qe], [Fm]): exact instantiation checked
   against hand-computed values and algebraic identities; float
   instantiation cross-checked against the exact one. *)

module Qm = Linalg.Matrix.Q
module Fm = Lp_oracle.Fl
module Qe = Lp_oracle.Q

let q = Rat.of_ints
let rat = Alcotest.testable Rat.pp Rat.equal
let qmat = Alcotest.testable Qm.pp Qm.equal

let m_of_ints rows = Qm.of_rows (List.map (List.map (fun x -> q x 1)) rows)

(* --------------------------------------------------------------- *)
(* Construction                                                     *)
(* --------------------------------------------------------------- *)

let test_identity () =
  let i3 = Qm.identity 3 in
  Alcotest.(check int) "rows" 3 (Qm.rows i3);
  Alcotest.(check int) "cols" 3 (Qm.cols i3);
  Alcotest.check rat "diag" Rat.one (Qm.get i3 1 1);
  Alcotest.check rat "off-diag" Rat.zero (Qm.get i3 0 2)

let test_of_rows_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_rows: ragged rows") (fun () ->
      ignore (Qm.of_rows [ [ Rat.one ]; [ Rat.one; Rat.zero ] ]))

let test_transpose () =
  let m = m_of_ints [ [ 1; 2; 3 ]; [ 4; 5; 6 ] ] in
  let t = Qm.transpose m in
  Alcotest.(check int) "rows" 3 (Qm.rows t);
  Alcotest.(check int) "cols" 2 (Qm.cols t);
  Alcotest.check rat "entry" (q 6 1) (Qm.get t 2 1);
  Alcotest.check qmat "involution" m (Qm.transpose t)

(* --------------------------------------------------------------- *)
(* Products                                                         *)
(* --------------------------------------------------------------- *)

let test_mul () =
  let a = m_of_ints [ [ 1; 2 ]; [ 3; 4 ] ] in
  let b = m_of_ints [ [ 5; 6 ]; [ 7; 8 ] ] in
  Alcotest.check qmat "product" (m_of_ints [ [ 19; 22 ]; [ 43; 50 ] ]) (Qm.mul a b);
  Alcotest.check qmat "identity right" a (Qm.mul a (Qm.identity 2));
  Alcotest.check qmat "identity left" a (Qm.mul (Qm.identity 2) a)

let test_mul_vec () =
  let a = m_of_ints [ [ 1; 2 ]; [ 3; 4 ] ] in
  let v = [| q 5 1; q 6 1 |] in
  let r = Qm.mul_vec a v in
  Alcotest.check rat "first" (q 17 1) r.(0);
  Alcotest.check rat "second" (q 39 1) r.(1);
  let l = Qm.vec_mul v a in
  Alcotest.check rat "row-vector first" (q 23 1) l.(0);
  Alcotest.check rat "row-vector second" (q 34 1) l.(1)

let test_dot () =
  Alcotest.check rat "dot" (q 32 1) (Qm.dot [| q 1 1; q 2 1; q 3 1 |] [| q 4 1; q 5 1; q 6 1 |])

(* --------------------------------------------------------------- *)
(* Determinant / inverse / solve / rank                             *)
(* --------------------------------------------------------------- *)

let test_determinant () =
  Alcotest.check rat "2x2" (q (-2) 1) (Qe.determinant (m_of_ints [ [ 1; 2 ]; [ 3; 4 ] ]));
  Alcotest.check rat "singular" Rat.zero (Qe.determinant (m_of_ints [ [ 1; 2 ]; [ 2; 4 ] ]));
  Alcotest.check rat "3x3" (q 1 1)
    (Qe.determinant (m_of_ints [ [ 1; 0; 0 ]; [ 0; 0; -1 ]; [ 0; 1; 0 ] ]));
  Alcotest.check rat "identity" Rat.one (Qe.determinant (Qm.identity 5));
  (* Vandermonde determinant for (1,2,3): Π (xj - xi) = 2. *)
  let v = m_of_ints [ [ 1; 1; 1 ]; [ 1; 2; 4 ]; [ 1; 3; 9 ] ] in
  Alcotest.check rat "vandermonde" (q 2 1) (Qe.determinant v)

let test_inverse () =
  let a = m_of_ints [ [ 2; 1 ]; [ 1; 1 ] ] in
  (match Qe.inverse a with
   | None -> Alcotest.fail "should be invertible"
   | Some inv ->
     Alcotest.check qmat "a * a^-1 = I" (Qm.identity 2) (Qm.mul a inv);
     Alcotest.check qmat "a^-1 * a = I" (Qm.identity 2) (Qm.mul inv a));
  Alcotest.(check bool) "singular has no inverse" true
    (Qe.inverse (m_of_ints [ [ 1; 2 ]; [ 2; 4 ] ]) = None)

let test_solve () =
  let a = m_of_ints [ [ 2; 1 ]; [ 1; 3 ] ] in
  (match Qe.solve a [| q 5 1; q 10 1 |] with
   | None -> Alcotest.fail "solvable"
   | Some x ->
     Alcotest.check rat "x0" (q 1 1) x.(0);
     Alcotest.check rat "x1" (q 3 1) x.(1));
  Alcotest.(check bool) "singular unsolvable" true
    (Qe.solve (m_of_ints [ [ 1; 1 ]; [ 1; 1 ] ]) [| Rat.one; Rat.zero |] = None)

let test_rank () =
  Alcotest.(check int) "full" 3 (Qe.rank (Qm.identity 3));
  Alcotest.(check int) "rank 1" 1 (Qe.rank (m_of_ints [ [ 1; 2 ]; [ 2; 4 ] ]));
  Alcotest.(check int) "rank 2 rect" 2 (Qe.rank (m_of_ints [ [ 1; 0; 1 ]; [ 0; 1; 1 ] ]));
  Alcotest.(check int) "zero" 0 (Qe.rank (Qm.make 3 3 Rat.zero))

(* --------------------------------------------------------------- *)
(* Stochastic predicates                                            *)
(* --------------------------------------------------------------- *)

let test_stochastic () =
  let s = Qm.of_rows [ [ q 1 2; q 1 2 ]; [ q 1 4; q 3 4 ] ] in
  Alcotest.(check bool) "row stochastic" true (Qm.is_row_stochastic s);
  Alcotest.(check bool) "generalized" true (Qm.is_generalized_stochastic s);
  let g = Qm.of_rows [ [ q 3 2; q (-1) 2 ]; [ q 1 4; q 3 4 ] ] in
  Alcotest.(check bool) "generalized but not stochastic" true
    (Qm.is_generalized_stochastic g && not (Qm.is_row_stochastic g));
  let n = Qm.of_rows [ [ q 1 2; q 1 4 ]; [ q 1 4; q 3 4 ] ] in
  Alcotest.(check bool) "not generalized" false (Qm.is_generalized_stochastic n)

(* The stochastic group fact used in Theorem 2: the inverse of a
   nonsingular generalized stochastic matrix is generalized
   stochastic. *)
let test_stochastic_group () =
  let s = Qm.of_rows [ [ q 1 2; q 1 2 ]; [ q 1 4; q 3 4 ] ] in
  match Qe.inverse s with
  | None -> Alcotest.fail "invertible"
  | Some inv -> Alcotest.(check bool) "inverse generalized stochastic" true (Qm.is_generalized_stochastic inv)

(* --------------------------------------------------------------- *)
(* Float instantiation cross-check                                  *)
(* --------------------------------------------------------------- *)

let test_float_crosscheck () =
  let a = m_of_ints [ [ 4; 7; 1 ]; [ 2; 6; 3 ]; [ 1; 1; 1 ] ] in
  let fa = Lp_oracle.q_to_float a in
  let det_q = Rat.to_float (Qe.determinant a) in
  let det_f = Fm.determinant fa in
  Alcotest.(check (float 1e-9)) "determinants agree" det_q det_f;
  match (Qe.inverse a, Fm.inverse fa) with
  | Some qi, Some fi ->
    for i = 0 to 2 do
      for j = 0 to 2 do
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "inv(%d,%d)" i j)
          (Rat.to_float (Qm.get qi i j))
          (Fm.get fi i j)
      done
    done
  | _ -> Alcotest.fail "both invertible"

(* --------------------------------------------------------------- *)
(* Property tests                                                   *)
(* --------------------------------------------------------------- *)

let gen_small_rat = QCheck.Gen.(map2 (fun n d -> Rat.of_ints n d) (int_range (-20) 20) (int_range 1 10))

let gen_matrix n : Qm.t QCheck.Gen.t =
 fun st -> Array.init n (fun _ -> Array.init n (fun _ -> gen_small_rat st))

let arb_matrix3 =
  QCheck.make ~print:Qm.to_string (gen_matrix 3)

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let properties =
  [
    prop "det(AB) = det(A)det(B)" 60 (QCheck.pair arb_matrix3 arb_matrix3) (fun (a, b) ->
        Rat.equal (Qe.determinant (Qm.mul a b)) (Rat.mul (Qe.determinant a) (Qe.determinant b)));
    prop "det(Aᵀ) = det(A)" 60 arb_matrix3 (fun a ->
        Rat.equal (Qe.determinant (Qm.transpose a)) (Qe.determinant a));
    prop "inverse correct when it exists" 60 arb_matrix3 (fun a ->
        match Qe.inverse a with
        | None -> Rat.is_zero (Qe.determinant a)
        | Some inv -> Qm.equal (Qm.mul a inv) (Qm.identity 3));
    prop "solve matches inverse" 60 arb_matrix3 (fun a ->
        let v = [| Rat.one; Rat.two; q 3 1 |] in
        match (Qe.solve a v, Qe.inverse a) with
        | None, None -> true
        | Some x, Some inv ->
          let y = Qm.mul_vec inv v in
          Array.for_all2 Rat.equal x y
        | _ -> false);
    prop "rank of product <= min rank" 40 (QCheck.pair arb_matrix3 arb_matrix3) (fun (a, b) ->
        Qe.rank (Qm.mul a b) <= min (Qe.rank a) (Qe.rank b));
    prop "(A+B)ᵀ = Aᵀ+Bᵀ" 60 (QCheck.pair arb_matrix3 arb_matrix3) (fun (a, b) ->
        Qm.equal (Qm.transpose (Qm.add a b)) (Qm.add (Qm.transpose a) (Qm.transpose b)));
    prop "(AB)ᵀ = BᵀAᵀ" 60 (QCheck.pair arb_matrix3 arb_matrix3) (fun (a, b) ->
        Qm.equal (Qm.transpose (Qm.mul a b)) (Qm.mul (Qm.transpose b) (Qm.transpose a)));
    prop "row_sums of product of stochastics is 1" 40 (QCheck.pair arb_matrix3 arb_matrix3)
      (fun (a, b) ->
        (* Normalize rows to build stochastic-like matrices (may have
           negative entries => generalized). *)
        let normalize m =
          Array.map
            (fun row ->
              let s = Array.fold_left Rat.add Rat.zero row in
              if Rat.is_zero s then Array.mapi (fun j _ -> if j = 0 then Rat.one else Rat.zero) row
              else Array.map (fun x -> Rat.div x s) row)
            m
        in
        let a = normalize a and b = normalize b in
        Qm.is_generalized_stochastic (Qm.mul a b));
  ]

let () =
  Alcotest.run "linalg"
    [
      ( "construction",
        [
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "ragged rejected" `Quick test_of_rows_ragged;
          Alcotest.test_case "transpose" `Quick test_transpose;
        ] );
      ( "products",
        [
          Alcotest.test_case "matrix product" `Quick test_mul;
          Alcotest.test_case "matrix-vector" `Quick test_mul_vec;
          Alcotest.test_case "dot" `Quick test_dot;
        ] );
      ( "elimination",
        [
          Alcotest.test_case "determinant" `Quick test_determinant;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "solve" `Quick test_solve;
          Alcotest.test_case "rank" `Quick test_rank;
        ] );
      ( "stochastic",
        [
          Alcotest.test_case "predicates" `Quick test_stochastic;
          Alcotest.test_case "stochastic group closure" `Quick test_stochastic_group;
        ] );
      ("float", [ Alcotest.test_case "cross-check with exact" `Quick test_float_crosscheck ]);
      ("properties", properties);
    ]
