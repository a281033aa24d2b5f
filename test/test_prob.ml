(* Tests for the probability substrate: PRNG determinism and range,
   discrete-distribution algebra, samplers validated by χ² and TV
   distance, the exact alias table vs the float inverse CDF. *)

module Rng = Prob.Rng
module D = Prob.Discrete
module S = Prob.Stats

(* --------------------------------------------------------------- *)
(* RNG                                                              *)
(* --------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.of_int 1 and b = Rng.of_int 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_float_range () =
  let rng = Rng.of_int 7 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_int_range () =
  let rng = Rng.of_int 9 in
  for bound = 1 to 20 do
    for _ = 1 to 500 do
      let v = Rng.int rng bound in
      if v < 0 || v >= bound then Alcotest.failf "int out of [0,%d): %d" bound v
    done
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_int_uniform () =
  let rng = Rng.of_int 11 in
  let xs = Array.init 60_000 (fun _ -> Rng.int rng 6) in
  Alcotest.(check bool) "χ² fits uniform(6)" true (S.fits xs (D.uniform 0 5))

let test_rng_copy_and_split () =
  let a = Rng.of_int 5 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy same" (Rng.next_int64 a) (Rng.next_int64 b);
  let c = Rng.split a in
  Alcotest.(check bool) "split independent stream" true (Rng.next_int64 a <> Rng.next_int64 c)

let test_rng_streams () =
  let k = 5 in
  let a = Rng.streams (Rng.of_int 13) k and b = Rng.streams (Rng.of_int 13) k in
  Alcotest.(check int) "count" k (Array.length a);
  Array.iteri
    (fun i s -> Alcotest.(check int64) "stream i deterministic" (Rng.next_int64 s) (Rng.next_int64 b.(i)))
    a;
  let firsts = Array.to_list (Array.map Rng.next_int64 (Rng.streams (Rng.of_int 13) k)) in
  Alcotest.(check int) "streams pairwise distinct" k (List.length (List.sort_uniq compare firsts));
  Alcotest.check_raises "negative count" (Invalid_argument "Rng.streams: negative count")
    (fun () -> ignore (Rng.streams (Rng.of_int 1) (-1)))

(* --------------------------------------------------------------- *)
(* Discrete distributions                                           *)
(* --------------------------------------------------------------- *)

let test_of_assoc_normalizes () =
  let d = D.of_assoc [ (0, 2.0); (1, 6.0) ] in
  Alcotest.(check (float 1e-12)) "mass 0" 0.25 (D.mass d 0);
  Alcotest.(check (float 1e-12)) "mass 1" 0.75 (D.mass d 1);
  Alcotest.(check (float 1e-12)) "mass elsewhere" 0.0 (D.mass d 7);
  Alcotest.(check bool) "normalized" true (D.is_normalized d)

let test_of_assoc_merges_duplicates () =
  let d = D.of_assoc [ (3, 1.0); (3, 1.0); (4, 2.0) ] in
  Alcotest.(check (float 1e-12)) "merged" 0.5 (D.mass d 3)

let test_of_assoc_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Discrete.of_assoc: empty distribution")
    (fun () -> ignore (D.of_assoc []));
  Alcotest.check_raises "negative" (Invalid_argument "Discrete.of_assoc: negative mass")
    (fun () -> ignore (D.of_assoc [ (0, 1.0); (1, -0.5) ]))

let test_moments () =
  let d = D.uniform 0 10 in
  Alcotest.(check (float 1e-9)) "uniform mean" 5.0 (D.mean d);
  Alcotest.(check (float 1e-9)) "uniform variance" 10.0 (D.variance d);
  let p = D.point 4 in
  Alcotest.(check (float 1e-12)) "point mean" 4.0 (D.mean p);
  Alcotest.(check (float 1e-12)) "point variance" 0.0 (D.variance p)

let test_expectation () =
  let d = D.of_assoc [ (0, 0.5); (2, 0.5) ] in
  Alcotest.(check (float 1e-12)) "E[x^2]" 2.0 (D.expectation d (fun v -> float_of_int (v * v)))

let test_of_rat_row () =
  let d = D.of_rat_row [| Rat.of_ints 1 4; Rat.of_ints 3 4 |] in
  Alcotest.(check (float 1e-12)) "mass 1" 0.75 (D.mass d 1)

let test_total_variation () =
  let a = D.of_assoc [ (0, 0.5); (1, 0.5) ] in
  let b = D.of_assoc [ (0, 0.25); (1, 0.75) ] in
  Alcotest.(check (float 1e-12)) "tv" 0.25 (D.total_variation a b);
  Alcotest.(check (float 1e-12)) "tv self" 0.0 (D.total_variation a a);
  let c = D.point 5 in
  Alcotest.(check (float 1e-12)) "tv disjoint" 1.0 (D.total_variation a c)

let test_kl () =
  let a = D.of_assoc [ (0, 0.5); (1, 0.5) ] in
  Alcotest.(check (float 1e-12)) "kl self" 0.0 (D.kl_divergence a a);
  let b = D.of_assoc [ (0, 0.9); (1, 0.1) ] in
  Alcotest.(check bool) "kl positive" true (D.kl_divergence a b > 0.0);
  let c = D.point 0 in
  Alcotest.(check bool) "kl infinite off support" true (D.kl_divergence a c = infinity)

(* --------------------------------------------------------------- *)
(* Samplers                                                         *)
(* --------------------------------------------------------------- *)

let test_sample_matches_pmf () =
  let d = D.of_assoc [ (0, 0.1); (1, 0.2); (2, 0.3); (3, 0.4) ] in
  let rng = Rng.of_int 123 in
  let xs = S.draw d rng 40_000 in
  Alcotest.(check bool) "χ² fits" true (S.fits xs d);
  Alcotest.(check bool) "tv small" true (S.empirical_tv xs d < 0.02)

let test_point_sampler () =
  let d = D.point 7 in
  let rng = Rng.of_int 3 in
  for _ = 1 to 100 do
    Alcotest.(check int) "always 7" 7 (D.sample d rng)
  done

(* The exact alias table of Mech.Sampler over the same masses as
   rationals: column j stands for support value 10 + j. *)
let test_alias_matches_inverse_cdf () =
  let d = D.of_assoc [ (10, 0.05); (11, 0.25); (12, 0.4); (13, 0.3) ] in
  let tbl =
    Mech.Sampler.of_row [| Rat.of_ints 1 20; Rat.of_ints 1 4; Rat.of_ints 2 5; Rat.of_ints 3 10 |]
  in
  let rng = Rng.of_int 99 in
  let xs = Array.init 40_000 (fun _ -> 10 + Mech.Sampler.draw tbl rng) in
  Alcotest.(check bool) "alias χ² fits target" true (S.fits xs d)

let test_alias_vs_exact_tv () =
  (* The float inverse-CDF sampler (statistics only) and the exact
     integer alias table every mechanism draw uses must agree — fixed
     seeds, empirical total-variation distance within bound, both
     between the samplers and from each to the target pmf. *)
  let d = D.of_assoc [ (0, 0.35); (1, 0.05); (2, 0.25); (3, 0.2); (4, 0.15) ] in
  let tbl =
    Mech.Sampler.of_row
      (Array.map (fun k -> Rat.of_ints k 20) [| 7; 1; 5; 4; 3 |])
  in
  let n = 60_000 in
  let xs_cdf = S.draw d (Rng.of_int 2024) n in
  let rng = Rng.of_int 4048 in
  let xs_alias = Array.init n (fun _ -> Mech.Sampler.draw tbl rng) in
  let between = D.total_variation (S.empirical xs_cdf) (S.empirical xs_alias) in
  Alcotest.(check bool) "tv(alias, cdf) < 0.02" true (between < 0.02);
  Alcotest.(check bool) "tv(alias, target) < 0.02" true (S.empirical_tv xs_alias d < 0.02);
  Alcotest.(check bool) "tv(cdf, target) < 0.02" true (S.empirical_tv xs_cdf d < 0.02)

let test_empirical () =
  let xs = [| 1; 1; 2; 2; 2; 3 |] in
  let e = S.empirical xs in
  Alcotest.(check (float 1e-12)) "mass 2" 0.5 (D.mass e 2);
  Alcotest.(check (float 1e-12)) "mass 1" (1. /. 3.) (D.mass e 1)

let test_summary () =
  let s = S.summarize [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "count" 4 s.S.count;
  Alcotest.(check (float 1e-12)) "mean" 2.5 s.S.mean;
  Alcotest.(check (float 1e-12)) "variance" 1.25 s.S.variance;
  Alcotest.(check int) "min" 1 s.S.min;
  Alcotest.(check int) "max" 4 s.S.max

let test_ks_statistic () =
  (* perfect match: tiny statistic; gross mismatch: large *)
  let d = D.uniform 0 3 in
  let rng = Rng.of_int 77 in
  let xs = S.draw d rng 20_000 in
  Alcotest.(check bool) "uniform sample fits" true (S.ks_fits xs d);
  let biased = Array.make 20_000 0 in
  Alcotest.(check bool) "constant sample fails" false (S.ks_fits biased d);
  Alcotest.(check bool) "statistic in [0,1]" true
    (let st = S.ks_statistic xs d in
     st >= 0.0 && st <= 1.0)

let test_ks_agrees_with_chi_square () =
  (* both tests accept a faithful geometric-row sample *)
  let d = D.of_assoc [ (0, 0.4); (1, 0.3); (2, 0.2); (3, 0.1) ] in
  let rng = Rng.of_int 1001 in
  let xs = S.draw d rng 30_000 in
  Alcotest.(check bool) "chi2" true (S.fits xs d);
  Alcotest.(check bool) "ks" true (S.ks_fits xs d)

let test_wilson_interval () =
  let lo, hi = S.wilson_interval ~successes:50 ~trials:100 in
  Alcotest.(check bool) "contains p" true (lo < 0.5 && 0.5 < hi);
  Alcotest.(check bool) "in [0,1]" true (lo >= 0.0 && hi <= 1.0);
  let lo0, _ = S.wilson_interval ~successes:0 ~trials:100 in
  Alcotest.(check (float 1e-12)) "zero successes floor" 0.0 lo0;
  let _, hi1 = S.wilson_interval ~successes:100 ~trials:100 in
  Alcotest.(check (float 1e-12)) "all successes ceiling" 1.0 hi1;
  (* narrows with more data *)
  let lo_a, hi_a = S.wilson_interval ~successes:500 ~trials:1000 in
  let lo_b, hi_b = S.wilson_interval ~successes:5000 ~trials:10000 in
  Alcotest.(check bool) "narrower" true (hi_b -. lo_b < hi_a -. lo_a);
  Alcotest.check_raises "bad counts" (Invalid_argument "Stats.wilson_interval") (fun () ->
      ignore (S.wilson_interval ~successes:5 ~trials:0))

let test_chi_square_detects_bias () =
  (* A clearly biased sample must fail the fit against uniform. *)
  let xs = Array.init 10_000 (fun i -> if i mod 10 = 0 then 1 else 0) in
  Alcotest.(check bool) "biased fails" false (S.fits xs (D.uniform 0 1))

(* --------------------------------------------------------------- *)
(* Property tests                                                   *)
(* --------------------------------------------------------------- *)

let arb_pmf =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map (fun (v, p) -> Printf.sprintf "%d:%.3f" v p) l))
    QCheck.Gen.(
      map (fun weights -> List.mapi (fun i w -> (i, 0.01 +. w)) weights)
        (list_size (int_range 2 12) (float_bound_exclusive 1.0)))

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let properties =
  [
    prop "pmf normalized" 100 arb_pmf (fun pairs -> D.is_normalized (D.of_assoc pairs));
    prop "samples stay on support" 50 arb_pmf (fun pairs ->
        let d = D.of_assoc pairs in
        let rng = Rng.of_int 5 in
        let ok = ref true in
        for _ = 1 to 200 do
          let v = D.sample d rng in
          if D.mass d v <= 0.0 then ok := false
        done;
        !ok);
    prop "tv symmetric" 60 (QCheck.pair arb_pmf arb_pmf) (fun (a, b) ->
        let da = D.of_assoc a and db = D.of_assoc b in
        Float.abs (D.total_variation da db -. D.total_variation db da) < 1e-12);
    prop "tv in [0,1]" 60 (QCheck.pair arb_pmf arb_pmf) (fun (a, b) ->
        let tv = D.total_variation (D.of_assoc a) (D.of_assoc b) in
        tv >= -1e-12 && tv <= 1.0 +. 1e-12);
    prop "kl nonnegative" 60 (QCheck.pair arb_pmf arb_pmf) (fun (a, b) ->
        let keys = List.sort_uniq compare (List.map fst (a @ b)) in
        let pad l = List.map (fun k -> (k, try List.assoc k l with Not_found -> 0.001)) keys in
        D.kl_divergence (D.of_assoc (pad a)) (D.of_assoc (pad b)) >= -1e-9);
    prop "mean within support bounds" 100 arb_pmf (fun pairs ->
        let d = D.of_assoc pairs in
        let support = D.support d in
        let lo = float_of_int support.(0) and hi = float_of_int support.(Array.length support - 1) in
        let m = D.mean d in
        m >= lo -. 1e-9 && m <= hi +. 1e-9);
  ]

let () =
  Alcotest.run "prob"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int uniformity" `Slow test_rng_int_uniform;
          Alcotest.test_case "copy and split" `Quick test_rng_copy_and_split;
          Alcotest.test_case "streams" `Quick test_rng_streams;
        ] );
      ( "discrete",
        [
          Alcotest.test_case "normalization" `Quick test_of_assoc_normalizes;
          Alcotest.test_case "duplicate merging" `Quick test_of_assoc_merges_duplicates;
          Alcotest.test_case "rejects invalid" `Quick test_of_assoc_rejects;
          Alcotest.test_case "moments" `Quick test_moments;
          Alcotest.test_case "expectation" `Quick test_expectation;
          Alcotest.test_case "of_rat_row" `Quick test_of_rat_row;
          Alcotest.test_case "total variation" `Quick test_total_variation;
          Alcotest.test_case "kl divergence" `Quick test_kl;
        ] );
      ( "samplers",
        [
          Alcotest.test_case "inverse-cdf matches pmf" `Slow test_sample_matches_pmf;
          Alcotest.test_case "point sampler" `Quick test_point_sampler;
          Alcotest.test_case "alias matches target" `Slow test_alias_matches_inverse_cdf;
          Alcotest.test_case "alias vs exact sampler (TV)" `Slow test_alias_vs_exact_tv;
          Alcotest.test_case "empirical" `Quick test_empirical;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "chi-square detects bias" `Quick test_chi_square_detects_bias;
          Alcotest.test_case "ks statistic" `Slow test_ks_statistic;
          Alcotest.test_case "ks agrees with chi-square" `Slow test_ks_agrees_with_chi_square;
          Alcotest.test_case "wilson interval" `Quick test_wilson_interval;
        ] );
      ("properties", properties);
    ]
