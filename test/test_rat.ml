(* Tests for the exact rational field. *)

module B = Bigint

let rat = Alcotest.testable Rat.pp Rat.equal
let q = Rat.of_ints

(* --------------------------------------------------------------- *)
(* Generators                                                       *)
(* --------------------------------------------------------------- *)

let gen_rat : Rat.t QCheck.Gen.t =
  QCheck.Gen.(
    map2
      (fun n d -> Rat.of_ints n (if d = 0 then 1 else d))
      (int_range (-10_000) 10_000)
      (int_range 1 10_000))

let arb_rat = QCheck.make ~print:Rat.to_string gen_rat

let gen_nonzero = QCheck.Gen.(map (fun r -> if Rat.is_zero r then Rat.one else r) gen_rat)
let arb_nonzero = QCheck.make ~print:Rat.to_string gen_nonzero

(* --------------------------------------------------------------- *)
(* Unit tests                                                       *)
(* --------------------------------------------------------------- *)

let test_normalization () =
  Alcotest.check rat "2/4 = 1/2" (q 1 2) (q 2 4);
  Alcotest.check rat "-2/-4 = 1/2" (q 1 2) (q (-2) (-4));
  Alcotest.check rat "2/-4 = -1/2" (q (-1) 2) (q 2 (-4));
  Alcotest.check rat "0/7 = 0" Rat.zero (q 0 7);
  Alcotest.(check string) "den positive" "1/2" (Rat.to_string (q (-1) (-2)));
  Alcotest.(check string) "zero canonical" "0" (Rat.to_string (q 0 (-5)))

let test_arith () =
  Alcotest.check rat "1/2 + 1/3" (q 5 6) (Rat.add (q 1 2) (q 1 3));
  Alcotest.check rat "1/2 - 1/3" (q 1 6) (Rat.sub (q 1 2) (q 1 3));
  Alcotest.check rat "2/3 * 3/4" (q 1 2) (Rat.mul (q 2 3) (q 3 4));
  Alcotest.check rat "(1/2) / (3/4)" (q 2 3) (Rat.div (q 1 2) (q 3 4));
  Alcotest.check rat "inv -2/3" (q (-3) 2) (Rat.inv (q (-2) 3));
  Alcotest.check rat "pow (2/3)^3" (q 8 27) (Rat.pow (q 2 3) 3);
  Alcotest.check rat "pow (2/3)^-2" (q 9 4) (Rat.pow (q 2 3) (-2));
  Alcotest.check rat "pow x^0" Rat.one (Rat.pow (q 7 5) 0);
  Alcotest.check rat "mul_int" (q 3 2) (Rat.mul_int (q 1 2) 3);
  Alcotest.check rat "div_int" (q 1 6) (Rat.div_int (q 1 2) 3)

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Rat.compare (q 1 3) (q 1 2) < 0);
  Alcotest.(check bool) "-1/2 < 1/3" true (Rat.compare (q (-1) 2) (q 1 3) < 0);
  Alcotest.(check bool) "equal" true (Rat.compare (q 2 6) (q 1 3) = 0);
  Alcotest.check rat "min" (q 1 3) (Rat.min (q 1 3) (q 1 2));
  Alcotest.check rat "max" (q 1 2) (Rat.max (q 1 3) (q 1 2))

let test_rounding () =
  let check_floor name x expected = Alcotest.(check string) name expected (B.to_string (Rat.floor x)) in
  check_floor "floor 7/2" (q 7 2) "3";
  check_floor "floor -7/2" (q (-7) 2) "-4";
  check_floor "floor 4" (q 4 1) "4";
  Alcotest.(check string) "ceil 7/2" "4" (B.to_string (Rat.ceil (q 7 2)));
  Alcotest.(check string) "ceil -7/2" "-3" (B.to_string (Rat.ceil (q (-7) 2)));
  Alcotest.(check string) "round 5/2 away" "3" (B.to_string (Rat.round (q 5 2)));
  Alcotest.(check string) "round -5/2 away" "-3" (B.to_string (Rat.round (q (-5) 2)));
  Alcotest.(check string) "round 1/3" "0" (B.to_string (Rat.round (q 1 3)))

let test_strings () =
  Alcotest.check rat "parse int" (q 5 1) (Rat.of_string "5");
  Alcotest.check rat "parse frac" (q 22 7) (Rat.of_string "22/7");
  Alcotest.check rat "parse negative frac" (q (-3) 4) (Rat.of_string "-3/4");
  Alcotest.check rat "parse decimal" (q 13 4) (Rat.of_string "3.25");
  Alcotest.check rat "parse negative decimal" (q (-1) 2) (Rat.of_string "-0.5");
  Alcotest.check rat "parse .5-ish" (q 1 20) (Rat.of_string "0.05");
  Alcotest.(check (option rat)) "reject garbage" None (Rat.of_string_opt "a/b");
  Alcotest.(check (option rat)) "reject trailing dot" None (Rat.of_string_opt "3.")

let test_decimal_string () =
  Alcotest.(check string) "1/2" "0.500000" (Rat.to_decimal_string (q 1 2));
  Alcotest.(check string) "1/3 places 4" "0.3333" (Rat.to_decimal_string ~places:4 (q 1 3));
  Alcotest.(check string) "2/3 rounds" "0.6667" (Rat.to_decimal_string ~places:4 (q 2 3));
  Alcotest.(check string) "-1/8" "-0.1250" (Rat.to_decimal_string ~places:4 (q (-1) 8));
  Alcotest.(check string) "integer" "3.00" (Rat.to_decimal_string ~places:2 (q 3 1));
  Alcotest.(check string) "places 0" "1" (Rat.to_decimal_string ~places:0 (q 3 4))

let test_float_conversion () =
  Alcotest.(check (float 1e-12)) "to_float 1/2" 0.5 (Rat.to_float (q 1 2));
  Alcotest.(check (float 1e-12)) "to_float -7/4" (-1.75) (Rat.to_float (q (-7) 4));
  Alcotest.check rat "of_float_dyadic 0.5" (q 1 2) (Rat.of_float_dyadic 0.5);
  Alcotest.check rat "of_float_dyadic -0.375" (q (-3) 8) (Rat.of_float_dyadic (-0.375));
  Alcotest.check rat "of_float_dyadic 0" Rat.zero (Rat.of_float_dyadic 0.0);
  (* The roundtrip is exact (0.1's dyadic value fits 53 bits), so a
     zero-tolerance float check is the right assertion. *)
  Alcotest.(check (float 0.)) "of_float_dyadic roundtrip" 0.1
    (Rat.to_float (Rat.of_float_dyadic 0.1))

let test_division_by_zero () =
  Alcotest.check_raises "make" Division_by_zero (fun () -> ignore (Rat.make B.one B.zero));
  Alcotest.check_raises "div" Division_by_zero (fun () -> ignore (Rat.div Rat.one Rat.zero));
  Alcotest.check_raises "inv" Division_by_zero (fun () -> ignore (Rat.inv Rat.zero))

let test_sum () =
  Alcotest.check rat "telescoping" Rat.one (Rat.sum [ q 1 2; q 1 4; q 1 8; q 1 8 ]);
  Alcotest.check rat "empty" Rat.zero (Rat.sum [])

let test_geometric_series () =
  (* Σ_{k=0}^{m} α^k = (1 - α^{m+1})/(1 - α): the identity underlying
     every row-sum computation in the geometric mechanism. *)
  let alpha = q 1 3 in
  let m = 10 in
  let lhs = Rat.sum (List.init (m + 1) (fun k -> Rat.pow alpha k)) in
  let rhs = Rat.div (Rat.sub Rat.one (Rat.pow alpha (m + 1))) (Rat.sub Rat.one alpha) in
  Alcotest.check rat "geometric series closed form" rhs lhs

(* --------------------------------------------------------------- *)
(* Property tests: field laws                                       *)
(* --------------------------------------------------------------- *)

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let properties =
  [
    prop "normalized: gcd(num,den)=1" 300 arb_rat (fun a ->
        B.is_one (B.gcd (Rat.num a) (Rat.den a)) || Rat.is_zero a);
    prop "den > 0" 300 arb_rat (fun a -> B.sign (Rat.den a) > 0);
    prop "add commutative" 300 (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
        Rat.equal (Rat.add a b) (Rat.add b a));
    prop "mul commutative" 300 (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
        Rat.equal (Rat.mul a b) (Rat.mul b a));
    prop "add associative" 200
      (QCheck.triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) -> Rat.equal (Rat.add (Rat.add a b) c) (Rat.add a (Rat.add b c)));
    prop "mul associative" 200
      (QCheck.triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) -> Rat.equal (Rat.mul (Rat.mul a b) c) (Rat.mul a (Rat.mul b c)));
    prop "distributive" 200
      (QCheck.triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) ->
        Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)));
    prop "additive inverse" 300 arb_rat (fun a -> Rat.is_zero (Rat.add a (Rat.neg a)));
    prop "multiplicative inverse" 300 arb_nonzero (fun a -> Rat.is_one (Rat.mul a (Rat.inv a)));
    prop "div then mul" 300 (QCheck.pair arb_rat arb_nonzero) (fun (a, b) ->
        Rat.equal a (Rat.mul (Rat.div a b) b));
    prop "string roundtrip" 300 arb_rat (fun a -> Rat.equal a (Rat.of_string (Rat.to_string a)));
    prop "compare consistent with sub" 300 (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
        Rat.compare a b = Rat.sign (Rat.sub a b));
    prop "floor <= x < floor+1" 300 arb_rat (fun a ->
        let f = Rat.of_bigint (Rat.floor a) in
        Rat.compare f a <= 0 && Rat.compare a (Rat.add f Rat.one) < 0);
    prop "ceil is -floor(-x)" 300 arb_rat (fun a ->
        B.equal (Rat.ceil a) (B.neg (Rat.floor (Rat.neg a))));
    prop "to_float ~ exact" 300 arb_rat (fun a ->
        Float.abs (Rat.to_float a -. (float_of_int (B.to_int_exn (Rat.num a)) /. float_of_int (B.to_int_exn (Rat.den a)))) < 1e-9);
    prop "of_float_dyadic exact" 300 QCheck.(float_range (-1000.) 1000.) (fun f ->
        Rat.to_float (Rat.of_float_dyadic f) = f);
  ]

(* ----------------------------------------------------------------- *)
(* Small-integer fast-path promotion boundary                          *)
(* ----------------------------------------------------------------- *)

(* The Bigint inline representation holds magnitudes of at most 62
   bits; 2^62 is the first value forced into limb form. Arithmetic at
   exactly that boundary must promote without losing exactness, and
   [to_small] must expose the representation honestly. *)
let test_promotion_boundary () =
  let two62 = B.shift_left B.one 62 in
  let below = B.sub two62 B.one in
  (* 2^62 - 1 is the largest inline value; 2^62 must be promoted. *)
  Alcotest.(check int) "2^62-1 inline" max_int (B.to_small below);
  Alcotest.(check int) "2^62 promoted" B.not_small (B.to_small two62);
  Alcotest.(check int) "-(2^62-1) inline" (-max_int) (B.to_small (B.neg below));
  Alcotest.(check int) "-2^62 promoted" B.not_small (B.to_small (B.neg two62));
  (* [B.not_small] is [min_int] = -2^62, so the [to_small] checks above
     cannot tell a limb-form ±2^62 from one wrapped inline to
     [min_int]. Pin behaviour an inline [min_int] would break: [neg]
     and [abs] map it to itself, and it never equals a limb value. *)
  Alcotest.(check bool) "2^62 positive" true (B.sign two62 = 1);
  Alcotest.(check bool) "-2^62 is of_int min_int" true (B.equal (B.neg two62) (B.of_int min_int));
  Alcotest.(check bool) "neg (neg 2^62)" true (B.equal (B.neg (B.neg two62)) two62);
  Alcotest.(check bool) "abs (-2^62)" true (B.equal (B.abs (B.neg two62)) two62);
  (* Crossing the boundary in both directions stays exact. *)
  Alcotest.(check bool) "increment promotes exactly" true (B.equal (B.add below B.one) two62);
  Alcotest.(check string) "increment prints" "4611686018427387904" (B.to_string (B.add below B.one));
  Alcotest.(check bool) "decrement demotes exactly" true (B.equal (B.sub two62 B.one) below);
  Alcotest.(check int) "demoted value inline again" max_int (B.to_small (B.sub two62 B.one));
  Alcotest.(check string) "2^62 prints" "4611686018427387904" (B.to_string two62)

let test_rat_overflow_at_63_bits () =
  (* Products of two near-2^31.5 components overflow a native int at
     exactly 63 bits of magnitude; the slow path must take over with
     the same reduced result. *)
  let big = Rat.of_ints 0x3FFF_FFFF 1 in
  (* (2^30-1)² needs ~60 bits: still native; scale by 16 to cross 63. *)
  let p = Rat.mul big big in
  Alcotest.(check string) "sub-boundary product exact" "1152921502459363329" (Rat.to_string p);
  let p16 = Rat.mul (Rat.mul p (Rat.of_int 16)) (Rat.of_int 2) in
  Alcotest.(check string) "promoted product exact" "36893488078699626528" (Rat.to_string p16);
  (* A denominator at the boundary: 1/2^62 + 1/2^62 = 1/2^61. *)
  let tiny = Rat.make B.one (B.shift_left B.one 62) in
  let doubled = Rat.add tiny tiny in
  Alcotest.check rat "1/2^62 + 1/2^62" (Rat.make B.one (B.shift_left B.one 61)) doubled;
  (* Fast-path guard: components just below 2^30 stay native and
     reduce; the same values via strings agree. *)
  let a = Rat.of_ints 0x3FFF_FFFE 0x3FFF_FFFF in
  let b = Rat.of_ints 0x3FFF_FFFF 0x3FFF_FFFE in
  Alcotest.check rat "cross-boundary mul" Rat.one (Rat.mul a b);
  Alcotest.(check int) "compare across boundary" (-1) (Rat.compare a b)

(* The fast path allocates nothing but its result: a compare of two
   small rationals allocates no words, and an add at most the 7 words
   of the reduced result (a two-field record and two inline Bigints). *)
let test_fast_path_allocation () =
  let a = Rat.of_ints 3 7 and b = Rat.of_ints 5 11 in
  let iters = 10_000 in
  let words_per_call f =
    let before = Gc.minor_words () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f a b))
    done;
    (Gc.minor_words () -. before) /. float_of_int iters
  in
  let compare_words = words_per_call Rat.compare in
  let add_words = words_per_call Rat.add in
  Alcotest.(check bool)
    (Printf.sprintf "compare allocates 0 words (%.2f)" compare_words)
    true (compare_words < 0.01);
  Alcotest.(check bool)
    (Printf.sprintf "add allocates <= 7 words (%.2f)" add_words)
    true (add_words < 7.01)

let test_rat_slow_path_reduction_parity () =
  (* The Knuth-4.5.1 slow paths must produce canonically reduced
     results identical to naive make-based arithmetic. *)
  let w = Rat.make (B.of_string "123456789012345678901") (B.of_string "987654321098765432109") in
  let v = Rat.make (B.of_string "987654321") (B.of_string "123456789012345678901") in
  let sum = Rat.add w v in
  let naive_sum =
    Rat.make
      (B.add
         (B.mul (Rat.num w) (Rat.den v))
         (B.mul (Rat.num v) (Rat.den w)))
      (B.mul (Rat.den w) (Rat.den v))
  in
  Alcotest.check rat "add parity" naive_sum sum;
  let prod = Rat.mul w v in
  let naive_prod = Rat.make (B.mul (Rat.num w) (Rat.num v)) (B.mul (Rat.den w) (Rat.den v)) in
  Alcotest.check rat "mul parity" naive_prod prod;
  let dv = Rat.div w v in
  let naive_dv = Rat.make (B.mul (Rat.num w) (Rat.den v)) (B.mul (Rat.den w) (Rat.num v)) in
  Alcotest.check rat "div parity" naive_dv dv

let () =
  Alcotest.run "rat"
    [
      ( "unit",
        [
          Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "comparison" `Quick test_compare;
          Alcotest.test_case "rounding" `Quick test_rounding;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "decimal rendering" `Quick test_decimal_string;
          Alcotest.test_case "float conversion" `Quick test_float_conversion;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "sum" `Quick test_sum;
          Alcotest.test_case "geometric series" `Quick test_geometric_series;
          Alcotest.test_case "promotion boundary" `Quick test_promotion_boundary;
          Alcotest.test_case "overflow at 63 bits" `Quick test_rat_overflow_at_63_bits;
          Alcotest.test_case "slow-path reduction parity" `Quick test_rat_slow_path_reduction_parity;
          Alcotest.test_case "fast path allocation" `Quick test_fast_path_allocation;
        ] );
      ("properties", properties);
    ]
