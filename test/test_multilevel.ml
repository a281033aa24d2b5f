(* Tests for Algorithm 1 (multi-level release) and Lemma 3/4:
   transition matrices, exact stage marginals, collusion resistance
   (posterior identities), and the sampled cascade's statistics. *)

module M = Mech.Mechanism
module Geo = Mech.Geometric
module Ml = Minimax.Multi_level
module Qm = Linalg.Matrix.Q

let q = Rat.of_ints
let rat = Alcotest.testable Rat.pp Rat.equal

let levels3 = [ q 1 4; q 1 2; q 3 4 ]

(* --------------------------------------------------------------- *)
(* Lemma 3: transitions                                             *)
(* --------------------------------------------------------------- *)

let test_transition_stochastic () =
  List.iter
    (fun (alpha, beta) ->
      let t = Ml.transition ~n:4 ~alpha ~beta in
      Alcotest.(check bool)
        (Printf.sprintf "%s->%s" (Rat.to_string alpha) (Rat.to_string beta))
        true
        (Qm.is_row_stochastic t))
    [ (q 1 4, q 1 2); (q 1 10, q 9 10); (q 1 3, q 1 3); (q 2 5, q 3 5) ]

let test_transition_factors_geometric () =
  let n = 4 in
  let alpha = q 1 4 and beta = q 2 3 in
  let t = Ml.transition ~n ~alpha ~beta in
  let lhs = Qm.mul (M.matrix (Geo.matrix ~n ~alpha)) t in
  Alcotest.(check bool) "G_alpha * T = G_beta" true
    (Qm.equal lhs (M.matrix (Geo.matrix ~n ~alpha:beta)))

let test_transition_identity_when_equal () =
  let t = Ml.transition ~n:3 ~alpha:(q 1 2) ~beta:(q 1 2) in
  Alcotest.(check bool) "identity" true (Qm.equal t (Qm.identity 4))

let test_transition_rejects_backwards () =
  Alcotest.check_raises "beta < alpha"
    (Invalid_argument "Multi_level.transition: need alpha <= beta (privacy can only be added)")
    (fun () -> ignore (Ml.transition ~n:3 ~alpha:(q 1 2) ~beta:(q 1 4)))

let test_transition_composes () =
  (* T_{α,γ} = T_{α,β} · T_{β,γ} — the cascade is consistent. *)
  let n = 3 in
  let a = q 1 5 and b = q 2 5 and c = q 4 5 in
  let t_ab = Ml.transition ~n ~alpha:a ~beta:b in
  let t_bc = Ml.transition ~n ~alpha:b ~beta:c in
  let t_ac = Ml.transition ~n ~alpha:a ~beta:c in
  Alcotest.(check bool) "composition" true (Qm.equal t_ac (Qm.mul t_ab t_bc))

(* --------------------------------------------------------------- *)
(* Plans and marginals                                              *)
(* --------------------------------------------------------------- *)

let test_plan_validation () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Multi_level.make_plan: levels must be strictly increasing") (fun () ->
      ignore (Ml.make_plan ~n:3 ~levels:[ q 1 2; q 1 4 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Multi_level.make_plan: no levels") (fun () ->
      ignore (Ml.make_plan ~n:3 ~levels:[]))

let test_stage_marginals_are_geometric () =
  (* The exact marginal of stage i is G(n, α_i) — the heart of
     Theorem 1(1). *)
  let n = 4 in
  let plan = Ml.make_plan ~n ~levels:levels3 in
  List.iteri
    (fun i alpha ->
      let marginal = Ml.stage_marginal plan i in
      Alcotest.(check bool)
        (Printf.sprintf "stage %d" i)
        true
        (M.equal marginal (Geo.matrix ~n ~alpha)))
    levels3

let test_release_ranges () =
  let plan = Ml.make_plan ~n:5 ~levels:levels3 in
  let rng = Prob.Rng.of_int 42 in
  for tr = 0 to 5 do
    for _ = 1 to 50 do
      let rs = Ml.release plan ~true_result:tr rng in
      Alcotest.(check int) "k results" 3 (Array.length rs);
      Array.iter (fun r -> if r < 0 || r > 5 then Alcotest.failf "out of range %d" r) rs
    done
  done

let test_release_statistics () =
  (* Each released coordinate is distributed per its own geometric
     mechanism. *)
  let n = 4 in
  let plan = Ml.make_plan ~n ~levels:[ q 1 4; q 3 5 ] in
  let rng = Prob.Rng.of_int 2718 in
  let input = 2 in
  let trials = 30_000 in
  let first = Array.make trials 0 and second = Array.make trials 0 in
  for t = 0 to trials - 1 do
    let rs = Ml.release plan ~true_result:input rng in
    first.(t) <- rs.(0);
    second.(t) <- rs.(1)
  done;
  let g1 = Geo.matrix ~n ~alpha:(q 1 4) and g2 = Geo.matrix ~n ~alpha:(q 3 5) in
  Alcotest.(check bool) "first marginal" true
    (Prob.Stats.fits first (Prob.Discrete.of_rat_row (M.row g1 input)));
  Alcotest.(check bool) "second marginal" true
    (Prob.Stats.fits second (Prob.Discrete.of_rat_row (M.row g2 input)))

(* --------------------------------------------------------------- *)
(* Lemma 4: collusion resistance                                    *)
(* --------------------------------------------------------------- *)

let test_posterior_collusion_invariance () =
  (* Exact check: for every joint observation, the posterior given
     (r_1, r_2, ...) equals the posterior given r_1 alone. *)
  let n = 3 in
  let plan = Ml.make_plan ~n ~levels:levels3 in
  for r1 = 0 to n do
    for r2 = 0 to n do
      for r3 = 0 to n do
        let joint = Ml.posterior plan ~observed:[ (0, r1); (1, r2); (2, r3) ] in
        let single = Ml.posterior plan ~observed:[ (0, r1) ] in
        (match (joint, single) with
         | Some pj, Some ps ->
           Array.iteri
             (fun i pj_i ->
               Alcotest.check rat
                 (Printf.sprintf "posterior r=(%d,%d,%d) i=%d" r1 r2 r3 i)
                 ps.(i) pj_i)
             pj
         | None, _ ->
           (* Impossible joint observation (transition prob 0): fine, a
              colluder learns nothing from an event of measure zero. *)
           ()
         | Some _, None -> Alcotest.fail "single observation must have positive mass")
      done
    done
  done

let test_posterior_without_weakest_still_no_better () =
  (* Colluding subsets that exclude level 0: the posterior from
     (r_2, r_3) must equal the posterior from r_2 alone. *)
  let n = 3 in
  let plan = Ml.make_plan ~n ~levels:levels3 in
  for r2 = 0 to n do
    for r3 = 0 to n do
      (match
         (Ml.posterior plan ~observed:[ (1, r2); (2, r3) ], Ml.posterior plan ~observed:[ (1, r2) ])
       with
       | Some pj, Some ps ->
         Array.iteri (fun i v -> Alcotest.check rat (Printf.sprintf "i=%d" i) ps.(i) v) pj
       | None, _ -> ()
       | Some _, None -> Alcotest.fail "marginal observation must have positive mass")
    done
  done

let test_posterior_is_distribution () =
  let plan = Ml.make_plan ~n:3 ~levels:levels3 in
  match Ml.posterior plan ~observed:[ (0, 1) ] with
  | None -> Alcotest.fail "possible"
  | Some p ->
    Alcotest.check rat "sums to 1" Rat.one (Array.fold_left Rat.add Rat.zero p);
    Array.iter (fun x -> Alcotest.(check bool) "nonneg" true (Rat.sign x >= 0)) p

let test_independent_releases_leak () =
  (* Contrast experiment: *independent* re-randomization (the naive
     scheme the paper warns about) leaks — the posterior from two
     independent observations differs from the single-observation
     posterior. We verify on a direct Bayes computation. *)
  let n = 3 in
  let alpha = q 1 4 in
  let g = Geo.matrix ~n ~alpha in
  (* Observing r=0 twice (independently): posterior ∝ g(i,0)^2. *)
  let post_double =
    let raw = Array.init (n + 1) (fun i -> Rat.mul (M.prob g ~input:i ~output:0) (M.prob g ~input:i ~output:0)) in
    let tot = Array.fold_left Rat.add Rat.zero raw in
    Array.map (fun x -> Rat.div x tot) raw
  in
  let post_single =
    let raw = Array.init (n + 1) (fun i -> M.prob g ~input:i ~output:0) in
    let tot = Array.fold_left Rat.add Rat.zero raw in
    Array.map (fun x -> Rat.div x tot) raw
  in
  Alcotest.(check bool) "independent releases sharpen the posterior" false
    (Array.for_all2 Rat.equal post_double post_single)

(* --------------------------------------------------------------- *)
(* Property tests                                                   *)
(* --------------------------------------------------------------- *)

let arb_two_levels =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "%s<%s" (Rat.to_string a) (Rat.to_string b))
    QCheck.Gen.(
      map2
        (fun a b ->
          let x = Rat.of_ints (min a b) 10 and y = Rat.of_ints (max a b + 1) 10 in
          (x, y))
        (int_range 1 8) (int_range 1 8))

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* Random instance of the Lemma-4 setting: a strictly increasing level
   ladder (numerators over 10), a random colluding subset of stages,
   and a random value per colluded stage. *)
let arb_lemma4 =
  let gen =
    QCheck.Gen.(
      list_size (int_range 2 5) (int_range 1 9) >>= fun nums ->
      let nums = List.sort_uniq compare nums in
      let k = List.length nums in
      list_size (return k) bool >>= fun mask ->
      list_size (return k) (int_range 0 3) >>= fun vals ->
      return (nums, mask, vals))
  in
  QCheck.make
    ~print:(fun (nums, mask, vals) ->
      Printf.sprintf "levels=%s mask=%s vals=%s"
        (String.concat "," (List.map string_of_int nums))
        (String.concat "," (List.map (fun b -> if b then "1" else "0") mask))
        (String.concat "," (List.map string_of_int vals)))
    gen

let properties =
  [
    (* Lemma 4 as a property: for any ladder and any colluding subset
       of observations, the joint posterior equals the posterior of
       the subset's least-private element (its smallest α) alone —
       the extra, more-private rungs add nothing. *)
    prop "lemma 4 on random ladders and colluding subsets" 60 arb_lemma4
      (fun (nums, mask, vals) ->
        QCheck.assume (List.length nums >= 2);
        let levels = List.map (fun k -> Rat.of_ints k 10) nums in
        let plan = Ml.make_plan ~n:3 ~levels in
        let observed =
          List.concat
            (List.mapi
               (fun i (keep, v) -> if keep then [ (i, v) ] else [])
               (List.combine mask vals))
        in
        QCheck.assume (observed <> []);
        let least = List.hd observed in
        match (Ml.posterior plan ~observed, Ml.posterior plan ~observed:[ least ]) with
        | Some joint, Some single -> Array.for_all2 Rat.equal joint single
        | None, _ ->
          (* The joint observation has measure zero — nothing to learn. *)
          true
        | Some _, None -> false);
    prop "transition stochastic for random level pairs" 30 arb_two_levels (fun (a, b) ->
        Qm.is_row_stochastic (Ml.transition ~n:3 ~alpha:a ~beta:b));
    prop "transition factors exactly" 20 arb_two_levels (fun (a, b) ->
        let t = Ml.transition ~n:3 ~alpha:a ~beta:b in
        Qm.equal (Qm.mul (M.matrix (Geo.matrix ~n:3 ~alpha:a)) t) (M.matrix (Geo.matrix ~n:3 ~alpha:b)));
    prop "marginals geometric for random 2-level plans" 15 arb_two_levels (fun (a, b) ->
        QCheck.assume (not (Rat.equal a b));
        let plan = Ml.make_plan ~n:3 ~levels:[ a; b ] in
        M.equal (Ml.stage_marginal plan 1) (Geo.matrix ~n:3 ~alpha:b));
  ]

let () =
  Alcotest.run "multilevel"
    [
      ( "lemma3",
        [
          Alcotest.test_case "stochastic" `Quick test_transition_stochastic;
          Alcotest.test_case "factors geometric" `Quick test_transition_factors_geometric;
          Alcotest.test_case "identity at equal levels" `Quick test_transition_identity_when_equal;
          Alcotest.test_case "rejects backwards" `Quick test_transition_rejects_backwards;
          Alcotest.test_case "composes" `Quick test_transition_composes;
        ] );
      ( "algorithm1",
        [
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
          Alcotest.test_case "stage marginals" `Quick test_stage_marginals_are_geometric;
          Alcotest.test_case "release ranges" `Quick test_release_ranges;
          Alcotest.test_case "release statistics" `Slow test_release_statistics;
        ] );
      ( "lemma4",
        [
          Alcotest.test_case "collusion invariance" `Slow test_posterior_collusion_invariance;
          Alcotest.test_case "subsets excluding weakest" `Quick test_posterior_without_weakest_still_no_better;
          Alcotest.test_case "posterior is a distribution" `Quick test_posterior_is_distribution;
          Alcotest.test_case "independent releases leak" `Quick test_independent_releases_leak;
        ] );
      ("properties", properties);
    ]
