(* End-to-end integration tests: database → count query → geometric
   release → consumer interaction, the full multi-level publication
   pipeline, and cross-library consistency checks. These mirror the
   paper's running example (flu counts in San Diego). *)

module Db = Dpdb.Database
module Q = Dpdb.Count_query
module G = Dpdb.Generator
module M = Mech.Mechanism
module Geo = Mech.Geometric
module L = Minimax.Loss
module Si = Minimax.Side_info
module C = Minimax.Consumer
module U = Minimax.Universal
module Ml = Minimax.Multi_level

let q = Rat.of_ints
let rat = Alcotest.testable Rat.pp Rat.equal

(* --------------------------------------------------------------- *)
(* Scenario: the government publishes a perturbed flu count.        *)
(* --------------------------------------------------------------- *)

let test_publish_flu_count () =
  let rng = Prob.Rng.of_int 1 in
  let n = 12 in
  let db = G.population_with_count rng ~n ~count:7 in
  let true_count = Q.eval G.flu_anywhere db in
  Alcotest.(check int) "true count" 7 true_count;
  let alpha = q 1 2 in
  let g = Geo.matrix ~n ~alpha in
  (* Release is within range and has the right distribution. *)
  let xs = Array.init 20_000 (fun _ -> M.sample g ~input:true_count rng) in
  Array.iter (fun r -> if r < 0 || r > n then Alcotest.failf "out of range %d" r) xs;
  Alcotest.(check bool) "release matches G row" true
    (Prob.Stats.fits xs (Prob.Discrete.of_rat_row (M.row g true_count)))

(* --------------------------------------------------------------- *)
(* Scenario: the drug company applies its side information.         *)
(* --------------------------------------------------------------- *)

let test_drug_company_interaction () =
  (* Example 1 of the paper: the company knows at least l people
     bought its drug, so S = {l..n}. Its optimal interaction with the
     deployed geometric mechanism equals its tailored optimum. *)
  let rng = Prob.Rng.of_int 2 in
  let n = 6 in
  let db = G.population rng ~flu_rate:0.5 ~drug_rate_given_flu:0.6 n in
  let l = Q.eval G.drug_query db in
  let flu = Q.eval G.flu_anywhere db in
  Alcotest.(check bool) "side info valid" true (l <= flu);
  let side_info = Si.at_least ~n l in
  let consumer = C.make ~loss:L.squared ~side_info () in
  let cmp = U.compare_for ~alpha:(q 1 2) consumer in
  Alcotest.(check bool) "universality" true (U.universality_holds cmp);
  Alcotest.(check bool) "interaction helps or ties" true
    (Rat.compare cmp.U.universal_loss cmp.U.naive_loss <= 0)

(* --------------------------------------------------------------- *)
(* Scenario: two-tier publication (executives vs Internet).         *)
(* --------------------------------------------------------------- *)

let test_two_tier_publication () =
  let rng = Prob.Rng.of_int 3 in
  let n = 8 in
  let db = G.population_with_count rng ~n ~count:5 in
  let true_count = Q.eval G.flu_anywhere db in
  let exec_alpha = q 1 4 (* high utility *) and public_alpha = q 3 4 (* high privacy *) in
  let plan = Ml.make_plan ~n ~levels:[ exec_alpha; public_alpha ] in
  let releases = Ml.release plan ~true_result:true_count rng in
  Alcotest.(check int) "two releases" 2 (Array.length releases);
  (* The correlated public release is a post-processing of the exec
     release: colluders learn nothing beyond the exec version. *)
  (match Ml.posterior plan ~observed:[ (0, releases.(0)); (1, releases.(1)) ] with
   | None -> Alcotest.fail "observed event has positive probability"
   | Some joint ->
     (match Ml.posterior plan ~observed:[ (0, releases.(0)) ] with
      | None -> Alcotest.fail "positive probability"
      | Some single ->
        Array.iteri (fun i v -> Alcotest.check rat (Printf.sprintf "i=%d" i) single.(i) v) joint))

(* Each tier's consumer still gets its tailored optimum. *)
let test_two_tier_consumers_optimal () =
  let n = 5 in
  let levels = [ q 1 4; q 2 3 ] in
  let consumers =
    [
      C.make ~loss:L.absolute ~side_info:(Si.full n) ();
      C.make ~loss:L.zero_one ~side_info:(Si.at_most ~n 3) ();
    ]
  in
  List.iter2
    (fun alpha consumer ->
      let cmp = U.compare_for ~alpha consumer in
      Alcotest.(check bool)
        (Printf.sprintf "tier %s" (Rat.to_string alpha))
        true
        (U.universality_holds cmp))
    levels consumers

(* --------------------------------------------------------------- *)
(* Cross-library consistency                                        *)
(* --------------------------------------------------------------- *)

let test_factorization_consistency () =
  (* Optimal mechanism (LP), its factorization through G (Derivability),
     and the optimal interaction (LP) must all tell the same story. *)
  let n = 4 in
  let alpha = q 1 3 in
  let consumer = C.make ~loss:L.absolute ~side_info:(Si.full n) () in
  let tailored = Minimax.Optimal_mechanism.solve_structured ~alpha consumer in
  let opt = tailored.Minimax.Optimal_mechanism.mechanism in
  (* 1. The structured optimum is derivable from the geometric. *)
  (match Mech.Derivability.derive ~alpha opt with
   | Mech.Derivability.Not_derivable _ -> Alcotest.fail "Theorem 1 proof: optima are derivable"
   | Mech.Derivability.Derivable t ->
     (* 2. Recomposing gives the optimum back. *)
     let recomposed = M.compose (Geo.matrix ~n ~alpha) t in
     Alcotest.(check bool) "G·T = optimum" true (M.equal recomposed opt));
  (* 3. The interaction LP achieves the same loss. *)
  let inter = Minimax.Optimal_interaction.solve ~deployed:(Geo.matrix ~n ~alpha) consumer in
  Alcotest.check rat "losses agree" tailored.Minimax.Optimal_mechanism.loss
    inter.Minimax.Optimal_interaction.loss

let test_sampled_loss_matches_exact () =
  (* Monte-Carlo loss of the induced mechanism converges to the exact
     minimax loss at the argmax row. *)
  let n = 4 and alpha = q 1 2 in
  let consumer = C.make ~loss:L.absolute ~side_info:(Si.full n) () in
  let cmp = U.compare_for ~alpha consumer in
  let induced = cmp.U.induced in
  (* Find the worst row. *)
  let worst_row = ref 0 and worst = ref Rat.zero in
  for i = 0 to n do
    let l = C.expected_loss consumer induced i in
    if Rat.compare l !worst > 0 then begin
      worst := l;
      worst_row := i
    end
  done;
  let rng = Prob.Rng.of_int 5 in
  let trials = 60_000 in
  let total = ref 0 in
  for _ = 1 to trials do
    let r = M.sample induced ~input:!worst_row rng in
    total := !total + abs (!worst_row - r)
  done;
  let mc = float_of_int !total /. float_of_int trials in
  let exact = Rat.to_float !worst in
  Alcotest.(check bool)
    (Printf.sprintf "mc=%.4f exact=%.4f" mc exact)
    true
    (Float.abs (mc -. exact) < 0.03)

let test_dp_end_to_end_on_neighbor_databases () =
  (* Definition of DP, executed literally: two neighboring databases,
     the distributions of the released value must be within the α
     band, column by column. *)
  let rng = Prob.Rng.of_int 6 in
  let n = 10 in
  let db1 = G.population_with_count rng ~n ~count:4 in
  (* flip one non-flu row to flu: counts 4 -> 5, a neighbor *)
  let rows = Db.rows db1 in
  let idx, _ =
    List.mapi (fun i r -> (i, r)) rows
    |> List.find (fun (_, r) -> match r.(3) with Dpdb.Value.Bool b -> not b | _ -> false)
  in
  let row = Db.row db1 idx in
  row.(3) <- Dpdb.Value.Bool true;
  let db2 = Db.replace db1 idx row in
  Alcotest.(check bool) "neighbors" true (Db.are_neighbors db1 db2);
  let c1 = Q.eval G.flu_anywhere db1 and c2 = Q.eval G.flu_anywhere db2 in
  Alcotest.(check int) "counts adjacent" 1 (abs (c1 - c2));
  let alpha = q 1 2 in
  let g = Geo.matrix ~n ~alpha in
  for r = 0 to n do
    let p1 = M.prob g ~input:c1 ~output:r and p2 = M.prob g ~input:c2 ~output:r in
    Alcotest.(check bool) "alpha band" true
      (Rat.compare (Rat.mul alpha p1) p2 <= 0 && Rat.compare (Rat.mul alpha p2) p1 <= 0)
  done

let test_larger_instance_end_to_end () =
  (* A bigger n exercises LP scale: n = 8, squared loss, interval side
     info; the full Theorem-1 equality must hold exactly. *)
  let n = 8 in
  let consumer = C.make ~loss:L.squared ~side_info:(Si.interval ~n 2 6) () in
  let cmp = U.compare_for ~alpha:(q 1 2) consumer in
  Alcotest.(check bool) "universality at n=8" true (U.universality_holds cmp)

let () =
  Alcotest.run "integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "publish flu count" `Slow test_publish_flu_count;
          Alcotest.test_case "drug company" `Quick test_drug_company_interaction;
          Alcotest.test_case "two-tier publication" `Quick test_two_tier_publication;
          Alcotest.test_case "two-tier consumers" `Quick test_two_tier_consumers_optimal;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "factorization" `Quick test_factorization_consistency;
          Alcotest.test_case "sampled loss" `Slow test_sampled_loss_matches_exact;
          Alcotest.test_case "dp on neighbors" `Quick test_dp_end_to_end_on_neighbor_databases;
          Alcotest.test_case "larger instance" `Slow test_larger_instance_end_to_end;
        ] );
    ]
