(* Tests for the mechanism library: stochastic validation, DP
   verification, the geometric mechanism's defining properties
   (Definitions 1/4, Lemma 1), the Theorem-2 derivability
   characterization including the Appendix-B counterexample, baseline
   mechanisms, sampler/matrix consistency, and the exact row sampler
   (every table's pmf is its row in ℚ). *)

module M = Mech.Mechanism
module Geo = Mech.Geometric
module B = Mech.Baselines
module Der = Mech.Derivability
module Qm = Linalg.Matrix.Q
module Qe = Lp_oracle.Q

let q = Rat.of_ints
let rat = Alcotest.testable Rat.pp Rat.equal
let half = q 1 2

(* --------------------------------------------------------------- *)
(* Mechanism basics                                                 *)
(* --------------------------------------------------------------- *)

let test_make_validates () =
  Alcotest.check_raises "bad row sum" (M.Not_stochastic "row 0 sums to 3/4") (fun () ->
      ignore (M.of_rows [ [ q 1 4; q 1 2 ]; [ q 1 2; q 1 2 ] ]));
  Alcotest.check_raises "negative" (M.Not_stochastic "negative mass at (0,1)") (fun () ->
      ignore (M.of_rows [ [ q 3 2; q (-1) 2 ]; [ q 1 2; q 1 2 ] ]));
  Alcotest.check_raises "not square" (M.Not_stochastic "matrix not square") (fun () ->
      ignore (M.of_rows [ [ Rat.one ]; [ Rat.one ] ]))

let test_identity_mechanism () =
  let m = M.identity 3 in
  Alcotest.(check int) "n" 3 (M.n m);
  Alcotest.check rat "diag" Rat.one (M.prob m ~input:2 ~output:2);
  Alcotest.check rat "off" Rat.zero (M.prob m ~input:2 ~output:1);
  (* Identity is 0-DP only (no privacy). *)
  Alcotest.check rat "privacy level" Rat.zero (M.privacy_level m)

let test_compose () =
  let g = Geo.matrix ~n:3 ~alpha:half in
  let id = Array.init 4 (fun i -> Array.init 4 (fun j -> if i = j then Rat.one else Rat.zero)) in
  Alcotest.(check bool) "compose with identity" true (M.equal g (M.compose g id));
  (* Composing with the all-to-0 map yields a constant mechanism. *)
  let to_zero = Array.init 4 (fun _ -> Array.init 4 (fun j -> if j = 0 then Rat.one else Rat.zero)) in
  let c = M.compose g to_zero in
  Alcotest.check rat "all mass at 0" Rat.one (M.prob c ~input:2 ~output:0);
  (* Constant mechanisms are perfectly private. *)
  Alcotest.check rat "constant is 1-DP" Rat.one (M.privacy_level c)

let test_dp_violations () =
  let m = M.of_rows [ [ Rat.one; Rat.zero ]; [ Rat.zero; Rat.one ] ] in
  Alcotest.(check bool) "identity violates 1/2-DP" false (M.is_dp ~alpha:half m);
  Alcotest.(check int) "two violated columns" 2 (List.length (M.dp_violations ~alpha:half m))

let test_privacy_level_geometric () =
  (* privacy_level of G(n,α) is exactly α. *)
  List.iter
    (fun alpha ->
      let g = Geo.matrix ~n:5 ~alpha in
      Alcotest.check rat (Rat.to_string alpha) alpha (M.privacy_level g))
    [ q 1 5; q 1 3; half; q 3 4 ]

let test_minimax_loss () =
  let g = Geo.matrix ~n:3 ~alpha:half in
  let loss i r = Rat.of_int (abs (i - r)) in
  let full = M.minimax_loss g ~loss ~side_info:[ 0; 1; 2; 3 ] in
  let partial = M.minimax_loss g ~loss ~side_info:[ 1; 2 ] in
  Alcotest.(check bool) "restriction can only reduce" true (Rat.compare partial full <= 0);
  (* worst case for the geometric on absolute loss: interior rows leak
     both ways; expected loss at input 1:
     row 1 of G(3,1/2): [1/3, 1/3, 1/6, 1/6]; E = 1/3*1 + 1/6*1 + 1/6*2 = 5/6 *)
  Alcotest.check rat "interior expected loss" (q 5 6) (M.expected_loss g ~loss 1)

(* --------------------------------------------------------------- *)
(* Geometric mechanism                                              *)
(* --------------------------------------------------------------- *)

let test_geometric_row_stochastic () =
  List.iter
    (fun (n, alpha) ->
      let g = Geo.matrix ~n ~alpha in
      ignore g (* M.make already validates stochasticity *))
    [ (1, half); (3, q 1 4); (8, q 2 3); (12, q 9 10) ]

let test_geometric_known_values () =
  (* G(3, 1/2), hand computed. Row 1 = [1/3, 1/3, 1/6, 1/6]. *)
  let g = Geo.matrix ~n:3 ~alpha:half in
  Alcotest.check rat "g(0,0)" (q 2 3) (M.prob g ~input:0 ~output:0);
  Alcotest.check rat "g(0,3)" (q 1 12) (M.prob g ~input:0 ~output:3);
  Alcotest.check rat "g(1,0)" (q 1 3) (M.prob g ~input:1 ~output:0);
  Alcotest.check rat "g(1,1)" (q 1 3) (M.prob g ~input:1 ~output:1);
  Alcotest.check rat "g(1,2)" (q 1 6) (M.prob g ~input:1 ~output:2);
  Alcotest.check rat "g(1,3)" (q 1 6) (M.prob g ~input:1 ~output:3);
  Alcotest.check rat "symmetric" (M.prob g ~input:0 ~output:1) (M.prob g ~input:3 ~output:2)

let test_geometric_self_dp () =
  List.iter
    (fun (n, alpha) -> Alcotest.(check bool) "self-DP" true (Geo.is_self_dp ~n ~alpha))
    [ (2, q 1 4); (5, half); (7, q 4 5) ]

let test_geometric_not_stronger_dp () =
  (* G(n,α) is not α'-DP for any α' > α. *)
  let g = Geo.matrix ~n:4 ~alpha:half in
  Alcotest.(check bool) "not 2/3-DP" false (M.is_dp ~alpha:(q 2 3) g)

let test_scaled_matrix_entries () =
  let g' = Geo.scaled_matrix ~n:3 ~alpha:half in
  Alcotest.check rat "diag" Rat.one g'.(1).(1);
  Alcotest.check rat "corner" (q 1 8) g'.(0).(3);
  Alcotest.check rat "sym" g'.(0).(2) g'.(2).(0)

let test_lemma1_determinant () =
  (* det G'(n,α) = (1-α²)^n for the (n+1)×(n+1) matrix. *)
  List.iter
    (fun (n, alpha) ->
      let expected = Geo.scaled_determinant ~n ~alpha in
      let actual = Qe.determinant (Geo.scaled_matrix ~n ~alpha) in
      Alcotest.check rat (Printf.sprintf "n=%d" n) expected actual)
    [ (1, half); (2, half); (3, q 1 4); (5, q 2 3); (8, q 1 3) ]

let test_geometric_det_positive () =
  (* Hence Lemma 1: det G > 0. *)
  List.iter
    (fun (n, alpha) ->
      let g = M.matrix (Geo.matrix ~n ~alpha) in
      Alcotest.(check bool) "positive" true (Rat.sign (Qe.determinant g) > 0))
    [ (2, half); (4, q 1 4); (6, q 3 5) ]

let test_unbounded_pmf () =
  (* Definition 1: mass at offset z is (1-α)/(1+α)·α^{|z|}; symmetric,
     total mass 1 in the limit (check partial sums approach 1). *)
  let alpha = q 1 3 in
  Alcotest.check rat "center" (q 1 2) (Geo.unbounded_noise_pmf ~alpha 0);
  Alcotest.check rat "symmetry" (Geo.unbounded_noise_pmf ~alpha 4) (Geo.unbounded_noise_pmf ~alpha (-4));
  let partial = Rat.sum (List.init 81 (fun i -> Geo.unbounded_noise_pmf ~alpha (i - 40))) in
  Alcotest.(check bool) "mass converges to 1" true
    (Rat.compare (Rat.abs (Rat.sub partial Rat.one)) (q 1 1_000_000) < 0)

let test_clamping_matches_matrix () =
  (* The boundary mass of G(n,α) equals the tail mass of the unbounded
     mechanism below 0 / above n (Definition 4 ⟷ Definition 1). *)
  let alpha = q 2 5 and n = 4 in
  let g = Geo.matrix ~n ~alpha in
  List.iter
    (fun k ->
      (* tail sum: Σ_{z<=0} unbounded_pmf(center k)(z) using the
         geometric series α^k/(1+α) closed form for the lower tail *)
      let lower_tail = Rat.div (Rat.pow alpha k) (Rat.add Rat.one alpha) in
      Alcotest.check rat
        (Printf.sprintf "lower clamp k=%d" k)
        lower_tail
        (M.prob g ~input:k ~output:0))
    [ 0; 1; 2; 3; 4 ]

let test_sampler_matches_matrix () =
  (* Statistical check: clamped unbounded sampler induces G(n,α). *)
  let alpha = q 1 2 and n = 5 in
  let g = Geo.matrix ~n ~alpha in
  let rng = Prob.Rng.of_int 31337 in
  List.iter
    (fun input ->
      let xs = Array.init 30_000 (fun _ -> Geo.sample_clamped ~n ~alpha ~input rng) in
      let target = Prob.Discrete.of_rat_row (M.row g input) in
      Alcotest.(check bool)
        (Printf.sprintf "χ² input %d" input)
        true
        (Prob.Stats.fits xs target))
    [ 0; 2; 5 ]

let test_matrix_sampler_matches_matrix () =
  (* The exact row sampler also induces the matrix rows. *)
  let alpha = q 1 3 and n = 4 in
  let g = Geo.matrix ~n ~alpha in
  let rng = Prob.Rng.of_int 777 in
  let xs = Array.init 30_000 (fun _ -> M.sample g ~input:2 rng) in
  Alcotest.(check bool) "χ²" true (Prob.Stats.fits xs (Prob.Discrete.of_rat_row (M.row g 2)))

let test_check_alpha () =
  Alcotest.check_raises "alpha 0" (Invalid_argument "Geometric: alpha must satisfy 0 < alpha < 1")
    (fun () -> ignore (Geo.matrix ~n:3 ~alpha:Rat.zero));
  Alcotest.check_raises "alpha 1" (Invalid_argument "Geometric: alpha must satisfy 0 < alpha < 1")
    (fun () -> ignore (Geo.matrix ~n:3 ~alpha:Rat.one))

(* --------------------------------------------------------------- *)
(* Baselines                                                        *)
(* --------------------------------------------------------------- *)

let test_truncated_laplace () =
  let m = B.truncated_laplace ~n:4 ~alpha:half in
  (* Renormalization breaks the nominal DP level near the boundary. *)
  Alcotest.(check bool) "weaker than nominal" true (Rat.compare (M.privacy_level m) half < 0)

let test_randomized_response () =
  let m = B.randomized_response ~n:3 ~p:half in
  Alcotest.check rat "diagonal" (Rat.add half (q 1 8)) (M.prob m ~input:1 ~output:1);
  Alcotest.check rat "off" (q 1 8) (M.prob m ~input:1 ~output:0);
  (* Tuned RR achieves exactly the requested DP level. *)
  let tuned = B.randomized_response_dp ~n:3 ~alpha:(q 1 4) in
  Alcotest.check rat "tuned level" (q 1 4) (M.privacy_level tuned)

let test_rr_max_p () =
  (* p = (1-α)/(α n + 1) for n=3, α=1/4: (3/4)/(7/4) = 3/7. *)
  Alcotest.check rat "closed form" (q 3 7) (B.rr_max_p ~n:3 ~alpha:(q 1 4))

let test_exponential () =
  (* β = 1/2 gives α = 1/4-DP guarantee; matrix level may be higher. *)
  let m = B.exponential ~n:4 ~beta:half in
  Alcotest.(check bool) "at least 1/4-DP" true (M.is_dp ~alpha:(q 1 4) m);
  match B.exponential_dp ~n:4 ~alpha:(q 1 4) with
  | None -> Alcotest.fail "1/4 has rational sqrt"
  | Some m' -> Alcotest.(check bool) "same mechanism" true (M.equal m m')

let test_exponential_dp_irrational () =
  Alcotest.(check bool) "1/2 has no rational sqrt" true (B.exponential_dp ~n:3 ~alpha:half = None)

let test_rounded_laplace_sampler_range () =
  let rng = Prob.Rng.of_int 55 in
  for _ = 1 to 2_000 do
    let v = B.sample_rounded_laplace ~n:6 ~alpha:half ~input:3 rng in
    if v < 0 || v > 6 then Alcotest.failf "out of range: %d" v
  done

(* --------------------------------------------------------------- *)
(* Derivability (Theorem 2)                                         *)
(* --------------------------------------------------------------- *)

let test_geometric_derivable_from_itself () =
  let g = Geo.matrix ~n:3 ~alpha:half in
  match Der.derive ~alpha:half g with
  | Der.Derivable t ->
    (* The factor must be the identity. *)
    Alcotest.(check bool) "identity factor" true (Qm.equal t (Qm.identity 4))
  | Der.Not_derivable _ -> Alcotest.fail "G derivable from itself"

let test_appendix_b () =
  let m = Der.appendix_b_mechanism () in
  Alcotest.(check bool) "is 1/2-DP" true (M.is_dp ~alpha:half m);
  Alcotest.(check bool) "condition fails" false (Der.satisfies_condition ~alpha:half m);
  (match Der.derive ~alpha:half m with
   | Der.Derivable _ -> Alcotest.fail "Appendix B says not derivable"
   | Der.Not_derivable violations ->
     Alcotest.(check bool) "at least one violation" true (List.length violations >= 1);
     (* The paper's witness: column 1, middle entry row 1, slack -0.75/9 = -1/12. *)
     let w = List.find (fun v -> v.Der.column = 1 && v.Der.row = 1) violations in
     Alcotest.check rat "witness slack" (q (-1) 12) w.Der.slack)

let test_theorem2_both_directions () =
  (* For a batch of mechanisms, the syntactic condition and the
     constructive factorization must agree. *)
  let alpha = half in
  let mechanisms =
    [
      Geo.matrix ~n:3 ~alpha;
      Geo.matrix ~n:3 ~alpha:(q 3 4);
      B.truncated_laplace ~n:3 ~alpha;
      B.randomized_response_dp ~n:3 ~alpha;
      Der.appendix_b_mechanism ();
      M.identity 3;
    ]
  in
  List.iter
    (fun m ->
      let syntactic = Der.satisfies_condition ~alpha m in
      let constructive = Der.is_derivable ~alpha m in
      (* Theorem 2's equivalence is stated for DP mechanisms; the
         boundary conditions of Lemma 2 (rows 1 and n) are exactly DP
         constraints, so for non-DP mechanisms (identity) only the
         constructive direction is meaningful. *)
      if M.is_dp ~alpha m then
        Alcotest.(check bool) "equivalence" syntactic constructive)
    mechanisms

let test_lemma3_geometric_chain () =
  (* G(n,β) derivable from G(n,α) for α<β, NOT conversely. *)
  let n = 4 in
  let g_weak = Geo.matrix ~n ~alpha:(q 3 4) in
  let g_strong = Geo.matrix ~n ~alpha:(q 1 4) in
  Alcotest.(check bool) "more private from less" true (Der.is_derivable ~alpha:(q 1 4) g_weak);
  Alcotest.(check bool) "less private NOT from more" false (Der.is_derivable ~alpha:(q 3 4) g_strong)

let test_derivable_closed_under_postprocessing () =
  (* Anything of the form G·T with stochastic T is derivable. *)
  let alpha = q 1 3 and n = 3 in
  let g = Geo.matrix ~n ~alpha in
  let t =
    [|
      [| half; half; Rat.zero; Rat.zero |];
      [| Rat.zero; Rat.one; Rat.zero; Rat.zero |];
      [| Rat.zero; Rat.zero; Rat.one; Rat.zero |];
      [| Rat.zero; q 1 4; q 1 4; half |];
    |]
  in
  let m = M.compose g t in
  match Der.derive ~alpha m with
  | Der.Derivable t' -> Alcotest.(check bool) "recovers the factor" true (Qm.equal t t')
  | Der.Not_derivable _ -> Alcotest.fail "G·T must be derivable"

(* --------------------------------------------------------------- *)
(* Property tests                                                   *)
(* --------------------------------------------------------------- *)

let arb_alpha =
  QCheck.make
    ~print:Rat.to_string
    QCheck.Gen.(map2 (fun num den -> Rat.of_ints num (num + den)) (int_range 1 9) (int_range 1 9))

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* G(n,α)⁻¹·M in closed form against Gauss–Jordan in ℚ, on one
   right-hand side [I | G(n,β) | R]: the inverse itself, Lemma 3's
   transition, and a random rectangular R. *)
let arb_inverse_case =
  let open QCheck.Gen in
  let gen =
    let* n = int_range 1 40 in
    let* alpha = QCheck.gen arb_alpha in
    let* beta = QCheck.gen arb_alpha in
    let* k = int_range 1 4 in
    let+ r =
      array_repeat (n + 1)
        (array_repeat k (map2 (fun a b -> Rat.of_ints a b) (int_range (-9) 9) (int_range 1 9)))
    in
    (n, alpha, beta, r)
  in
  QCheck.make
    ~print:(fun (n, alpha, beta, r) ->
      Printf.sprintf "n=%d alpha=%s beta=%s R=\n%s" n (Rat.to_string alpha) (Rat.to_string beta)
        (Qm.to_string r))
    gen

let closed_form_inverse_matches_oracle (n, alpha, beta, r) =
  let g = M.matrix (Geo.matrix ~n ~alpha) in
  let g_beta = M.matrix (Geo.matrix ~n ~alpha:beta) in
  let w = n + 1 in
  let id = Qm.identity w in
  match Qe.gauss_jordan g (Array.init w (fun i -> Array.concat [ id.(i); g_beta.(i); r.(i) ])) with
  | None -> false
  | Some x ->
    let block off w = Array.map (fun row -> Array.sub row off w) x in
    Qm.equal (Geo.apply_inverse ~n ~alpha id) (block 0 w)
    && Qm.equal (Geo.apply_inverse ~n ~alpha g_beta) (block w w)
    && Qm.equal (Geo.apply_inverse ~n ~alpha r) (block (2 * w) (Qm.cols r))

(* α-DP mechanisms around the Theorem-2 boundary: the Appendix-B
   mechanism, or G(n,α)·T for a random stochastic T, with one column
   optionally lowered at one interior row as far as α-DP allows (the
   mass moves to another column of that row; a move that breaks α-DP
   is dropped). *)
let arb_thm2_case =
  let open QCheck.Gen in
  let random =
    let* n = int_range 2 8 in
    let* alpha = QCheck.gen arb_alpha in
    let* weights = array_repeat (n + 1) (array_repeat (n + 1) (int_range 0 3)) in
    let* i = int_range 1 (n - 1) in
    let* c = int_range 0 n in
    let* c' = int_range 0 n in
    let+ frac = int_range 0 4 in
    let t =
      Array.mapi
        (fun r row ->
          let s = Array.fold_left ( + ) 0 row in
          Array.mapi
            (fun j w -> if s = 0 then if j = r then Rat.one else Rat.zero else Rat.of_ints w s)
            row)
        weights
    in
    let m = M.matrix (M.compose (Geo.matrix ~n ~alpha) t) in
    let floor = Rat.mul alpha (Rat.max m.(i - 1).(c) m.(i + 1).(c)) in
    let delta = Rat.mul (Rat.of_ints frac 4) (Rat.sub m.(i).(c) floor) in
    let perturbed = Qm.copy m in
    perturbed.(i).(c) <- Rat.sub m.(i).(c) delta;
    perturbed.(i).(c') <- Rat.add perturbed.(i).(c') delta;
    let p = M.make perturbed in
    (alpha, if c <> c' && M.is_dp ~alpha p then p else M.make m)
  in
  QCheck.make
    ~print:(fun (alpha, m) -> Printf.sprintf "alpha=%s\n%s" (Rat.to_string alpha) (Qm.to_string (M.matrix m)))
    (frequency [ (1, return (half, Der.appendix_b_mechanism ())); (9, random) ])

let syntactic_test_matches_factor (alpha, m) =
  let n = M.n m in
  let t = Der.factor ~alpha m in
  let negatives = ref [] in
  for r = 1 to n - 1 do
    for c = 0 to n do
      if Rat.sign t.(r).(c) < 0 then negatives := (c, r) :: !negatives
    done
  done;
  let violations = Der.condition_violations ~alpha m in
  (* Interior rows of G⁻¹ carry d_r/(1−α²) with d_r = (1+α)/(1−α). *)
  let d_r = Rat.div (Rat.add Rat.one alpha) (Rat.sub Rat.one alpha) in
  let scale = Rat.div (Rat.sub Rat.one (Rat.mul alpha alpha)) d_r in
  List.sort compare (List.map (fun v -> (v.Der.column, v.Der.row)) violations)
  = List.sort compare !negatives
  && List.for_all (fun v -> Rat.equal v.Der.slack (Rat.mul t.(v.Der.row).(v.Der.column) scale)) violations

let properties =
  [
    prop "geometric privacy level is alpha" 25 (QCheck.pair arb_alpha QCheck.(int_range 1 8))
      (fun (alpha, n) -> Rat.equal (M.privacy_level (Geo.matrix ~n ~alpha)) alpha);
    prop "lemma 1 det formula" 20 (QCheck.pair arb_alpha QCheck.(int_range 1 6)) (fun (alpha, n) ->
        Rat.equal
          (Qe.determinant (Geo.scaled_matrix ~n ~alpha))
          (Geo.scaled_determinant ~n ~alpha));
    prop "closed-form G inverse equals Gauss-Jordan" 100 arb_inverse_case
      closed_form_inverse_matches_oracle;
    prop "Thm2 violations are the negative interior entries of the factor" 200 arb_thm2_case
      syntactic_test_matches_factor;
    prop "geometric satisfies Thm2 condition at own alpha" 20
      (QCheck.pair arb_alpha QCheck.(int_range 2 7))
      (fun (alpha, n) -> Der.satisfies_condition ~alpha (Geo.matrix ~n ~alpha));
    prop "post-processing never helps privacy_level decrease" 20
      (QCheck.pair arb_alpha QCheck.(int_range 1 6))
      (fun (alpha, n) ->
        (* Post-processing cannot reduce privacy: level of G·T >= level of G. *)
        let g = Geo.matrix ~n ~alpha in
        let to_zero =
          Array.init (n + 1) (fun _ -> Array.init (n + 1) (fun j -> if j = 0 then Rat.one else Rat.zero))
        in
        let m = M.compose g to_zero in
        Rat.compare (M.privacy_level m) (M.privacy_level g) >= 0);
    prop "rr tuned achieves exactly alpha" 20 (QCheck.pair arb_alpha QCheck.(int_range 1 8))
      (fun (alpha, n) -> Rat.equal (M.privacy_level (B.randomized_response_dp ~n ~alpha)) alpha);
    prop "minimax loss monotone under side-info inclusion" 15
      (QCheck.pair arb_alpha QCheck.(int_range 2 6))
      (fun (alpha, n) ->
        let g = Geo.matrix ~n ~alpha in
        let loss i r = Rat.of_int (abs (i - r)) in
        let full = M.minimax_loss g ~loss ~side_info:(List.init (n + 1) Fun.id) in
        let sub = M.minimax_loss g ~loss ~side_info:[ 0; n / 2 ] in
        Rat.compare sub full <= 0);
    prop "compose is associative" 15 (QCheck.pair arb_alpha QCheck.(int_range 1 5))
      (fun (alpha, n) ->
        let g = Geo.matrix ~n ~alpha in
        let to_zero =
          Array.init (n + 1) (fun _ ->
              Array.init (n + 1) (fun j -> if j = 0 then Rat.one else Rat.zero))
        in
        let shift =
          Array.init (n + 1) (fun r ->
              Array.init (n + 1) (fun j -> if j = min n (r + 1) then Rat.one else Rat.zero))
        in
        let lhs = M.compose (M.compose g shift) to_zero in
        let rhs = M.compose g (Linalg.Matrix.Q.mul shift to_zero) in
        M.equal lhs rhs);
    prop "privacy level never drops under post-processing" 15
      (QCheck.pair arb_alpha QCheck.(int_range 1 5))
      (fun (alpha, n) ->
        let g = Geo.matrix ~n ~alpha in
        let blur =
          Array.init (n + 1) (fun r ->
              Array.init (n + 1) (fun j ->
                  if j = r then Rat.of_ints 1 2
                  else if j = min n (r + 1) then
                    if r = n then Rat.of_ints 1 2 else Rat.of_ints 1 2
                  else Rat.zero))
        in
        (* fix row n: diag gets 1/2, j=min n (n+1)=n collides; rebuild *)
        let blur =
          Array.mapi
            (fun r row ->
              if r = n then Array.mapi (fun j _ -> if j = n then Rat.one else Rat.zero) row
              else row)
            blur
        in
        let m = M.compose g blur in
        Rat.compare (M.privacy_level m) (M.privacy_level g) >= 0);
    prop "geometric row symmetry" 20 (QCheck.pair arb_alpha QCheck.(int_range 1 7))
      (fun (alpha, n) ->
        let g = Geo.matrix ~n ~alpha in
        let ok = ref true in
        for i = 0 to n do
          for r = 0 to n do
            if not (Rat.equal (M.prob g ~input:i ~output:r) (M.prob g ~input:(n - i) ~output:(n - r)))
            then ok := false
          done
        done;
        !ok);
  ]

(* --------------------------------------------------------------- *)
(* Exact sampler                                                    *)
(* --------------------------------------------------------------- *)

module Sa = Mech.Sampler

(* Random probability vectors of length 1–12: non-negative rational
   weights normalized by their sum. With [big], every weight's
   denominator is at least 2^62, so m·d cannot fit in a word. *)
let arb_row =
  let open QCheck.Gen in
  let gen =
    let* m = int_range 1 12 in
    let* big = bool in
    let+ weights =
      array_repeat m
        (map2
           (fun a b ->
             let den = if big then Bigint.add_int (Bigint.shift_left Bigint.one 62) b else Bigint.of_int b in
             Rat.make (Bigint.of_int a) den)
           (oneof [ return 0; int_range 0 1000 ]) (int_range 1 1000))
    in
    let weights = if Array.for_all Rat.is_zero weights then Array.make m Rat.one else weights in
    let total = Array.fold_left Rat.add Rat.zero weights in
    Array.map (fun w -> Rat.div w total) weights
  in
  QCheck.make
    ~print:(fun row -> String.concat "; " (Array.to_list (Array.map Rat.to_string row)))
    gen

(* The table samples the row exactly, and runs on limbs exactly when
   m·d exceeds a native word. *)
let table_is_exact row =
  let t = Sa.of_row row in
  let d = Array.fold_left (fun acc p -> Bigint.lcm acc (Rat.den p)) Bigint.one row in
  let wide = Bigint.to_int (Bigint.mul_int d (Array.length row)) = None in
  Array.for_all2 Rat.equal (Sa.pmf t) row && Sa.width t = if wide then `Limbs else `Word

(* Every u in [0, m·d), pushed through the draw's decision, releases
   column j exactly m·d·p_j times. *)
let enumerate row =
  let t = Sa.of_row row in
  let bound = Bigint.to_int_exn (Sa.bound t) in
  let counts = Array.make (Array.length row) 0 in
  for u = 0 to bound - 1 do
    let j = Sa.outcome t (Bigint.of_int u) in
    counts.(j) <- counts.(j) + 1
  done;
  Array.iteri
    (fun j p ->
      Alcotest.check rat (Printf.sprintf "count %d / m·d" j) p (Rat.of_ints counts.(j) bound))
    row

let test_sampler_enumeration () =
  List.iter enumerate
    [
      [| Rat.one |];
      [| q 1 2; q 1 3; q 1 6 |];
      [| Rat.zero; Rat.one; Rat.zero |];
      [| q 3 7; Rat.zero; q 4 7; Rat.zero |];
    ];
  List.iter
    (fun (n, alpha) ->
      let g = Geo.matrix ~n ~alpha in
      for i = 0 to n do
        enumerate (M.row g i)
      done)
    [ (1, half); (4, half); (6, half); (5, q 1 3); (6, q 2 3) ]

let test_sampler_limb_path () =
  (* G(64, 1/2)'s end rows have d = 3·2^64: the uniform is drawn over
     limbs, and the draws stay in range. *)
  let g = Geo.matrix ~n:64 ~alpha:half in
  List.iter
    (fun i ->
      let t = Sa.of_row (M.row g i) in
      Alcotest.(check bool) "limb path" true (Sa.width t = `Limbs);
      Alcotest.(check bool) "pmf is the row" true (Array.for_all2 Rat.equal (Sa.pmf t) (M.row g i));
      let rng = Prob.Rng.of_int 64 in
      for _ = 1 to 2_000 do
        let r = Sa.draw t rng in
        if r < 0 || r > 64 then Alcotest.failf "draw out of range: %d" r
      done)
    [ 0; 64 ];
  Alcotest.(check bool) "a short row stays on words" true
    (Sa.width (Sa.of_row (M.row (Geo.matrix ~n:6 ~alpha:half) 3)) = `Word)

let test_sampler_refuses () =
  let refuses row =
    match Sa.of_row row with
    | exception Sa.Unfaithful _ -> ()
    | _ -> Alcotest.failf "accepted [%s]" (String.concat "; " (Array.to_list (Array.map Rat.to_string row)))
  in
  refuses [| q 1 2; q 1 3 |];
  refuses [| q 1 2; q 2 3 |];
  refuses [| q (-1) 2; q 3 2 |];
  Alcotest.check_raises "empty row" (Invalid_argument "Sampler.of_row: empty row") (fun () ->
      ignore (Sa.of_row [||]))

let sampler_tests =
  [
    Alcotest.test_case "enumeration is exact" `Quick test_sampler_enumeration;
    Alcotest.test_case "G(64,1/2) end rows take limbs" `Quick test_sampler_limb_path;
    Alcotest.test_case "non-stochastic rows refused" `Quick test_sampler_refuses;
    prop "table pmf equals the row" 300 arb_row table_is_exact;
  ]

let () =
  Alcotest.run "mech"
    [
      ( "mechanism",
        [
          Alcotest.test_case "validation" `Quick test_make_validates;
          Alcotest.test_case "identity" `Quick test_identity_mechanism;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "dp violations" `Quick test_dp_violations;
          Alcotest.test_case "privacy level of geometric" `Quick test_privacy_level_geometric;
          Alcotest.test_case "minimax loss" `Quick test_minimax_loss;
        ] );
      ( "geometric",
        [
          Alcotest.test_case "row stochastic" `Quick test_geometric_row_stochastic;
          Alcotest.test_case "known values" `Quick test_geometric_known_values;
          Alcotest.test_case "self DP" `Quick test_geometric_self_dp;
          Alcotest.test_case "not stronger DP" `Quick test_geometric_not_stronger_dp;
          Alcotest.test_case "scaled matrix" `Quick test_scaled_matrix_entries;
          Alcotest.test_case "Lemma 1 determinant" `Quick test_lemma1_determinant;
          Alcotest.test_case "det positive" `Quick test_geometric_det_positive;
          Alcotest.test_case "unbounded pmf" `Quick test_unbounded_pmf;
          Alcotest.test_case "clamping matches matrix" `Quick test_clamping_matches_matrix;
          Alcotest.test_case "sampler matches matrix" `Slow test_sampler_matches_matrix;
          Alcotest.test_case "exact sampler matches matrix" `Slow test_matrix_sampler_matches_matrix;
          Alcotest.test_case "alpha validation" `Quick test_check_alpha;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "truncated laplace" `Quick test_truncated_laplace;
          Alcotest.test_case "randomized response" `Quick test_randomized_response;
          Alcotest.test_case "rr closed form" `Quick test_rr_max_p;
          Alcotest.test_case "exponential" `Quick test_exponential;
          Alcotest.test_case "exponential irrational sqrt" `Quick test_exponential_dp_irrational;
          Alcotest.test_case "rounded laplace range" `Quick test_rounded_laplace_sampler_range;
        ] );
      ( "derivability",
        [
          Alcotest.test_case "G from G" `Quick test_geometric_derivable_from_itself;
          Alcotest.test_case "Appendix B counterexample" `Quick test_appendix_b;
          Alcotest.test_case "Theorem 2 equivalence" `Quick test_theorem2_both_directions;
          Alcotest.test_case "Lemma 3 chain" `Quick test_lemma3_geometric_chain;
          Alcotest.test_case "closure under post-processing" `Quick test_derivable_closed_under_postprocessing;
        ] );
      ("properties", properties);
      ("sampler", sampler_tests);
    ]
