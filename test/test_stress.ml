(* Stress suite: heavier randomized cross-validation than the
   per-module suites — big-number torture for Bigint (including the
   Karatsuba crossover and algorithm-D edge shapes), pricing-rule
   cross-checks on random LPs, derivability round-trips on random
   post-processings, and sampler/matrix χ² agreement on random
   mechanisms. *)

module B = Bigint
module M = Mech.Mechanism
module Geo = Mech.Geometric
module Qm = Linalg.Matrix.Q

let q = Rat.of_ints

(* --------------------------------------------------------------- *)
(* Bigint torture                                                   *)
(* --------------------------------------------------------------- *)

let gen_digits rng n =
  String.init n (fun i ->
      if i = 0 then Char.chr (Char.code '1' + Prob.Rng.int rng 9)
      else Char.chr (Char.code '0' + Prob.Rng.int rng 10))

let test_bigint_identities_torture () =
  let rng = Prob.Rng.of_int 90125 in
  for _ = 1 to 60 do
    (* digit counts straddling the Karatsuba limb threshold (32 limbs
       ≈ 289 decimal digits) *)
    let len1 = 1 + Prob.Rng.int rng 600 in
    let len2 = 1 + Prob.Rng.int rng 600 in
    let a = B.of_string (gen_digits rng len1) in
    let b = B.of_string (gen_digits rng len2) in
    (* (a+b)² = a² + 2ab + b² mixes karatsuba and schoolbook paths *)
    let lhs = B.mul (B.add a b) (B.add a b) in
    let rhs = B.add (B.add (B.mul a a) (B.mul (B.mul_int (B.mul a b) 2) B.one)) (B.mul b b) in
    if not (B.equal lhs rhs) then Alcotest.failf "square identity failed at %d/%d digits" len1 len2;
    (* divmod roundtrip with magnitudes of very different sizes *)
    let big = B.mul a b in
    if not (B.is_zero b) then begin
      let qt, r = B.divmod big b in
      if not (B.equal big (B.add (B.mul qt b) r)) then Alcotest.fail "divmod reconstruction";
      if B.compare (B.abs r) (B.abs b) >= 0 then Alcotest.fail "remainder too large"
    end
  done

let test_bigint_division_edge_shapes () =
  let rng = Prob.Rng.of_int 555 in
  (* Shapes that exercise algorithm D's qhat adjustment: dividends with
     long runs of maximal limbs (strings of 9s) over two-limb-ish
     divisors. *)
  for trial = 1 to 40 do
    let nines = String.make (30 + (trial * 7)) '9' in
    let a = B.of_string nines in
    let d = B.of_string (gen_digits rng (10 + Prob.Rng.int rng 12)) in
    let qt, r = B.divmod a d in
    if not (B.equal a (B.add (B.mul qt d) r)) then Alcotest.fail "nines reconstruction";
    (* quotient via string oracle: multiply back and compare bounds *)
    if B.compare r d >= 0 then Alcotest.fail "remainder bound"
  done;
  (* powers of two around limb boundaries *)
  List.iter
    (fun e ->
      let x = B.pow B.two e in
      let qt, r = B.divmod x (B.pred x) in
      Alcotest.(check bool) "2^e / (2^e - 1)" true (B.is_one qt && B.is_one r))
    [ 29; 30; 31; 59; 60; 61; 89; 90; 91 ]

let test_bigint_string_torture () =
  let rng = Prob.Rng.of_int 31337 in
  for _ = 1 to 40 do
    let s = gen_digits rng (1 + Prob.Rng.int rng 1000) in
    let x = B.of_string s in
    if B.to_string x <> s then Alcotest.failf "roundtrip failed at %d digits" (String.length s)
  done

(* --------------------------------------------------------------- *)
(* Simplex pricing cross-check on random LPs                        *)
(* --------------------------------------------------------------- *)

let test_pricing_crosscheck_random () =
  let rng = Prob.Rng.of_int 777 in
  for _ = 1 to 40 do
    let nvars = 2 + Prob.Rng.int rng 3 in
    let ncons = 2 + Prob.Rng.int rng 4 in
    let build () =
      let p = Lp.make () in
      let vars = Array.init nvars (fun _ -> Lp.fresh_var p) in
      for _ = 1 to ncons do
        let expr =
          Lp.Expr.sum
            (Array.to_list
               (Array.map (fun v -> Lp.Expr.term (q (1 + Prob.Rng.int rng 8) 1) v) vars))
        in
        Lp.add_le p expr (q (5 + Prob.Rng.int rng 30) 1)
      done;
      Lp.set_objective p Lp.Maximize
        (Lp.Expr.sum
           (Array.to_list (Array.map (fun v -> Lp.Expr.term (q (1 + Prob.Rng.int rng 8) 1) v) vars)));
      p
    in
    (* Rebuild with the same RNG stream for both solvers: snapshot. *)
    let snapshot = Prob.Rng.copy rng in
    let p1 = build () in
    let _ = Prob.Rng.copy snapshot in
    (* restore stream so both problems are identical *)
    let p2 =
      (* rebuild deterministically by replaying from the snapshot *)
      let rng_replay = snapshot in
      let p = Lp.make () in
      let vars = Array.init nvars (fun _ -> Lp.fresh_var p) in
      for _ = 1 to ncons do
        let expr =
          Lp.Expr.sum
            (Array.to_list
               (Array.map (fun v -> Lp.Expr.term (q (1 + Prob.Rng.int rng_replay 8) 1) v) vars))
        in
        Lp.add_le p expr (q (5 + Prob.Rng.int rng_replay 30) 1)
      done;
      Lp.set_objective p Lp.Maximize
        (Lp.Expr.sum
           (Array.to_list
              (Array.map (fun v -> Lp.Expr.term (q (1 + Prob.Rng.int rng_replay 8) 1) v) vars)));
      p
    in
    match
      ( Lp.solve ~pricing:Lp.Revised.Dantzig_lex p1,
        Lp.solve ~pricing:Lp.Revised.Bland p2 )
    with
    | Lp.Optimal a, Lp.Optimal b ->
      if not (Rat.equal a.Lp.objective b.Lp.objective) then
        Alcotest.failf "pricing rules disagree: %s vs %s" (Rat.to_string a.Lp.objective)
          (Rat.to_string b.Lp.objective)
    | _ -> Alcotest.fail "both bounded and feasible by construction"
  done

let test_degenerate_lps () =
  (* rhs-zero heavy LPs: many ties in every ratio test. *)
  let rng = Prob.Rng.of_int 4242 in
  for _ = 1 to 25 do
    let p = Lp.make () in
    let x = Lp.fresh_var p and y = Lp.fresh_var p and z = Lp.fresh_var p in
    (* cone constraints through the origin *)
    for _ = 1 to 4 do
      let c1 = q (1 + Prob.Rng.int rng 5) 1 and c2 = q (1 + Prob.Rng.int rng 5) 1 in
      Lp.add_ge p Lp.Expr.(sub (term c1 x) (term c2 y)) Rat.zero
    done;
    Lp.add_le p Lp.Expr.(sum [ var x; var y; var z ]) Rat.one;
    Lp.set_objective p Lp.Maximize Lp.Expr.(sum [ var x; var y; term (q 1 2) z ]);
    match Lp.solve p with
    | Lp.Optimal s -> Alcotest.(check bool) "certificate" true (Lp.check_solution p s)
    | _ -> Alcotest.fail "feasible (origin) and bounded (simplex-bounded)"
  done

(* --------------------------------------------------------------- *)
(* Derivability round-trips on random post-processings              *)
(* --------------------------------------------------------------- *)

let random_stochastic rng n =
  Array.init (n + 1) (fun _ ->
      let weights = Array.init (n + 1) (fun _ -> 1 + Prob.Rng.int rng 9) in
      let total = Array.fold_left ( + ) 0 weights in
      Array.map (fun w -> q w total) weights)

let test_derivability_roundtrip_random () =
  let rng = Prob.Rng.of_int 60031 in
  for _ = 1 to 30 do
    let n = 2 + Prob.Rng.int rng 5 in
    let alpha = q (1 + Prob.Rng.int rng 8) 10 in
    let g = Geo.matrix ~n ~alpha in
    let t = random_stochastic rng n in
    let m = M.compose g t in
    match Mech.Derivability.derive ~alpha m with
    | Mech.Derivability.Derivable t' ->
      if not (Qm.equal t t') then Alcotest.fail "factor not recovered"
    | Mech.Derivability.Not_derivable _ -> Alcotest.fail "G·T must be derivable"
  done

let test_theorem2_syntactic_equivalence_random () =
  (* For random DP mechanisms (mixtures of derivable ones are DP but
     not necessarily derivable), the syntactic condition and the
     constructive verdict must agree. *)
  let rng = Prob.Rng.of_int 70707 in
  for _ = 1 to 30 do
    let n = 2 + Prob.Rng.int rng 4 in
    let alpha = q 1 2 in
    (* random mixture of G(n,1/2)-derivable and G(n,3/4) mechanisms —
       all 1/2-DP (3/4-DP implies 1/2-DP), not all derivable. *)
    let m1 = M.compose (Geo.matrix ~n ~alpha) (random_stochastic rng n) in
    let m2 = Geo.matrix ~n ~alpha:(q 3 4) in
    let lambda = q (Prob.Rng.int rng 11) 10 in
    let mix =
      M.make
        (Array.init (n + 1) (fun i ->
             Array.init (n + 1) (fun r ->
                 Rat.add
                   (Rat.mul lambda (M.prob m1 ~input:i ~output:r))
                   (Rat.mul (Rat.sub Rat.one lambda) (M.prob m2 ~input:i ~output:r)))))
    in
    if M.is_dp ~alpha mix then begin
      let syntactic = Mech.Derivability.satisfies_condition ~alpha mix in
      let constructive = Mech.Derivability.is_derivable ~alpha mix in
      if syntactic <> constructive then
        Alcotest.failf "Theorem 2 equivalence broken (n=%d λ=%s)" n (Rat.to_string lambda)
    end
  done

(* --------------------------------------------------------------- *)
(* Sampler / matrix agreement on random mechanisms                  *)
(* --------------------------------------------------------------- *)

let test_sampler_chi_square_random () =
  let rng = Prob.Rng.of_int 888 in
  for _ = 1 to 5 do
    let n = 2 + Prob.Rng.int rng 4 in
    let m = M.compose (Geo.matrix ~n ~alpha:(q 1 2)) (random_stochastic rng n) in
    let input = Prob.Rng.int rng (n + 1) in
    let xs = Array.init 20_000 (fun _ -> M.sample m ~input rng) in
    if not (Prob.Stats.fits xs (Prob.Discrete.of_rat_row (M.row m input))) then
      Alcotest.failf "sampler diverged from matrix at n=%d input=%d" n input
  done

(* --------------------------------------------------------------- *)
(* Universality under randomized consumers, slightly larger n       *)
(* --------------------------------------------------------------- *)

let test_universality_random_losses () =
  (* Random monotone losses: random non-decreasing penalty ladders in
     the distance |i−r|. *)
  let rng = Prob.Rng.of_int 999331 in
  for _ = 1 to 6 do
    let n = 3 + Prob.Rng.int rng 2 in
    let ladder = Array.make (n + 1) Rat.zero in
    for d = 1 to n do
      ladder.(d) <- Rat.add ladder.(d - 1) (q (Prob.Rng.int rng 5) 2)
    done;
    let loss = Minimax.Loss.make ~name:"random-ladder" (fun i r -> ladder.(abs (i - r))) in
    Alcotest.(check bool) "ladder monotone" true (Minimax.Loss.is_monotone loss ~n);
    let members =
      List.filter (fun _ -> Prob.Rng.bool rng) (List.init (n + 1) Fun.id)
    in
    let members = if members = [] then [ n / 2 ] else members in
    let si = Minimax.Side_info.make ~n members in
    let c = Minimax.Consumer.make ~loss ~side_info:si () in
    let alpha = q (1 + Prob.Rng.int rng 8) 10 in
    let cmp = Minimax.Universal.compare_for ~alpha c in
    if not (Minimax.Universal.universality_holds cmp) then
      Alcotest.failf "universality failed for random loss at n=%d α=%s" n (Rat.to_string alpha)
  done

let () =
  Alcotest.run "stress"
    [
      ( "bigint",
        [
          Alcotest.test_case "arithmetic identities torture" `Slow test_bigint_identities_torture;
          Alcotest.test_case "division edge shapes" `Quick test_bigint_division_edge_shapes;
          Alcotest.test_case "string torture" `Quick test_bigint_string_torture;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "pricing cross-check" `Slow test_pricing_crosscheck_random;
          Alcotest.test_case "degenerate cones" `Quick test_degenerate_lps;
        ] );
      ( "derivability",
        [
          Alcotest.test_case "roundtrip on random T" `Slow test_derivability_roundtrip_random;
          Alcotest.test_case "Theorem 2 equivalence random" `Slow test_theorem2_syntactic_equivalence_random;
        ] );
      ("sampling", [ Alcotest.test_case "chi-square random mechanisms" `Slow test_sampler_chi_square_random ]);
      ( "universality",
        [ Alcotest.test_case "random monotone losses" `Slow test_universality_random_losses ] );
    ]
