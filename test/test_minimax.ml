(* Tests for the paper's core: loss functions, side information,
   consumers, the two LPs (§2.4.3 optimal interaction, §2.5 optimal
   mechanism), Lemma 5 structure, and Theorem 1(2) universality. *)

module M = Mech.Mechanism
module Geo = Mech.Geometric
module L = Minimax.Loss
module Si = Minimax.Side_info
module C = Minimax.Consumer
module Om = Minimax.Optimal_mechanism
module Oi = Minimax.Optimal_interaction
module U = Minimax.Universal

let q = Rat.of_ints
let rat = Alcotest.testable Rat.pp Rat.equal
let half = q 1 2

let consumer ?(n = 3) ?(loss = L.absolute) ?si () =
  let side_info = match si with Some s -> s | None -> Si.full n in
  C.make ~loss ~side_info ()

(* --------------------------------------------------------------- *)
(* Losses                                                           *)
(* --------------------------------------------------------------- *)

let test_loss_values () =
  Alcotest.check rat "absolute" (q 3 1) (L.eval L.absolute 2 5);
  Alcotest.check rat "squared" (q 9 1) (L.eval L.squared 2 5);
  Alcotest.check rat "zero-one hit" Rat.zero (L.eval L.zero_one 4 4);
  Alcotest.check rat "zero-one miss" Rat.one (L.eval L.zero_one 4 5);
  Alcotest.check rat "asymmetric over" (q 6 1) (L.eval (L.asymmetric ~over:(q 2 1) ~under:(q 5 1)) 2 5);
  Alcotest.check rat "asymmetric under" (q 15 1) (L.eval (L.asymmetric ~over:(q 2 1) ~under:(q 5 1)) 5 2);
  Alcotest.check rat "deadzone inside" Rat.zero (L.eval (L.deadzone ~width:2) 3 5);
  Alcotest.check rat "deadzone outside" (q 1 1) (L.eval (L.deadzone ~width:2) 3 6);
  Alcotest.check rat "capped" (q 2 1) (L.eval (L.capped ~cap:2) 0 5);
  Alcotest.check rat "scaled" (q 6 1) (L.eval (L.scale (q 2 1) L.absolute) 2 5)

let test_loss_monotone () =
  List.iter
    (fun l -> Alcotest.(check bool) (L.name l) true (L.is_monotone l ~n:8))
    (L.standard_suite
    @ [ L.asymmetric ~over:Rat.one ~under:(q 3 1); L.deadzone ~width:2; L.capped ~cap:3 ]);
  (* A non-monotone function must be rejected. *)
  let bad = L.make ~name:"bad" (fun i r -> if abs (i - r) = 1 then q 5 1 else Rat.zero) in
  Alcotest.(check bool) "non-monotone detected" false (L.is_monotone bad ~n:4)

let test_loss_proper () =
  List.iter
    (fun l -> Alcotest.(check bool) (L.name l) true (L.is_proper l ~n:6))
    L.standard_suite

(* --------------------------------------------------------------- *)
(* Side information                                                 *)
(* --------------------------------------------------------------- *)

let test_side_info () =
  let s = Si.make ~n:5 [ 3; 1; 3; 5 ] in
  Alcotest.(check (list int)) "sorted dedup" [ 1; 3; 5 ] (Si.members s);
  Alcotest.(check bool) "mem" true (Si.mem s 3);
  Alcotest.(check bool) "not mem" false (Si.mem s 2);
  Alcotest.(check int) "cardinal" 3 (Si.cardinal s);
  Alcotest.(check bool) "full" true (Si.is_full (Si.full 4));
  Alcotest.(check (list int)) "at_least" [ 2; 3; 4 ] (Si.members (Si.at_least ~n:4 2));
  Alcotest.(check (list int)) "at_most" [ 0; 1 ] (Si.members (Si.at_most ~n:4 1));
  Alcotest.(check (list int)) "interval" [ 1; 2 ] (Si.members (Si.interval ~n:4 1 2));
  Alcotest.check_raises "empty" (Invalid_argument "Side_info.make: empty side information")
    (fun () -> ignore (Si.make ~n:3 []));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Side_info.make: member outside {0..n}") (fun () ->
      ignore (Si.make ~n:3 [ 4 ]))

(* --------------------------------------------------------------- *)
(* Optimal mechanism LP (§2.5)                                      *)
(* --------------------------------------------------------------- *)

let test_optimal_is_dp_and_stochastic () =
  List.iter
    (fun alpha ->
      let r = Om.solve ~alpha (consumer ()) in
      (* stochasticity enforced by Mechanism.make; check DP. *)
      Alcotest.(check bool) "dp" true (M.is_dp ~alpha r.Om.mechanism))
    [ q 1 4; half; q 3 4 ]

let test_optimal_beats_geometric () =
  (* The tailored optimum is no worse than the raw geometric. *)
  let c = consumer ~loss:L.squared () in
  let alpha = half in
  let r = Om.solve ~alpha c in
  let g = Geo.matrix ~n:3 ~alpha in
  Alcotest.(check bool) "<= geometric loss" true
    (Rat.compare r.Om.loss (C.minimax_loss c g) <= 0)

let test_optimal_loss_matches_mechanism () =
  let c = consumer ~loss:L.absolute () in
  let r = Om.solve ~alpha:(q 1 4) c in
  Alcotest.check rat "reported = recomputed" r.Om.loss (C.minimax_loss c r.Om.mechanism)

let test_optimal_monotone_in_alpha () =
  (* More privacy (larger α) can only increase optimal loss. *)
  let c = consumer ~loss:L.absolute () in
  let losses =
    List.map (fun alpha -> (Om.solve ~alpha c).Om.loss) [ q 1 10; q 1 4; half; q 3 4; q 9 10 ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> Rat.compare a b <= 0 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (increasing losses)

let test_optimal_extreme_privacy () =
  (* As α → 1 mechanisms become constant across rows; for absolute loss
     and S = {0..3} the best constant distribution splits mass between
     1 and 2, with worst-case loss 3/2 (rows 0 and 3 see expected error
     1/2·1 + 1/2·2). At α = 99/100 the optimum is slightly below. *)
  let c = consumer () in
  let r = Om.solve ~alpha:(q 99 100) c in
  Alcotest.(check bool) "loss <= 3/2" true (Rat.compare r.Om.loss (q 3 2) <= 0);
  Alcotest.(check bool) "loss > 1.4" true (Rat.compare r.Om.loss (q 7 5) > 0);
  (* And at α = 1 - ε for tiny ε the LP value approaches 3/2. *)
  let r' = Om.solve ~alpha:(q 999 1000) c in
  Alcotest.(check bool) "monotone toward 3/2" true (Rat.compare r.Om.loss r'.Om.loss <= 0)

let test_optimal_with_singleton_side_info () =
  (* If the consumer knows the answer exactly, the optimal mechanism
     attains zero loss at that row (always answer i, still DP-feasible
     with full-support rows? No — answering i w.p. 1 violates nothing
     at row i since DP constrains *columns* across rows; the LP may
     concentrate row i on output i while other rows pay). *)
  let si = Si.singleton ~n:3 2 in
  let c = consumer ~si () in
  let r = Om.solve ~alpha:half c in
  Alcotest.(check bool) "tiny loss" true (Rat.compare r.Om.loss (q 1 2) < 0)

let test_fast_path_agrees () =
  (* solve_via_interaction is justified by Theorem 1; it must agree
     with the direct LP exactly, on every consumer we throw at it. *)
  List.iter
    (fun (loss, si, alpha) ->
      let c = C.make ~loss ~side_info:si () in
      let direct = Om.solve ~alpha c in
      let fast = Om.solve_via_interaction ~alpha c in
      Alcotest.check rat
        (Printf.sprintf "%s %s" (L.name loss) (Rat.to_string alpha))
        direct.Om.loss fast.Om.loss;
      Alcotest.(check bool) "fast result is DP" true (M.is_dp ~alpha fast.Om.mechanism))
    [
      (L.absolute, Si.full 3, half);
      (L.squared, Si.at_least ~n:4 2, q 1 4);
      (L.zero_one, Si.interval ~n:4 1 3, q 2 3);
    ]

let test_structured_same_loss () =
  let c = consumer ~loss:L.absolute () in
  let plain = Om.solve ~alpha:half c in
  let structured = Om.solve_structured ~alpha:half c in
  Alcotest.check rat "same primary loss" plain.Om.loss structured.Om.loss

let test_lemma5_pattern () =
  (* The structured optimum exhibits the Lemma-5 adjacent-row pattern. *)
  List.iter
    (fun (loss, alpha) ->
      let c = consumer ~loss () in
      let r = Om.solve_structured ~alpha c in
      Alcotest.(check bool)
        (Printf.sprintf "%s alpha=%s" (L.name loss) (Rat.to_string alpha))
        true
        (Om.satisfies_lemma5 ~alpha r.Om.mechanism))
    [ (L.absolute, half); (L.absolute, q 1 4); (L.squared, half); (L.zero_one, half) ]

(* --------------------------------------------------------------- *)
(* Optimal interaction LP (§2.4.3)                                  *)
(* --------------------------------------------------------------- *)

let test_interaction_improves () =
  (* Optimal interaction can only improve on taking the output at face
     value. *)
  let c = consumer ~si:(Si.at_least ~n:3 2) () in
  let g = Geo.matrix ~n:3 ~alpha:half in
  let r = Oi.solve ~deployed:g c in
  Alcotest.(check bool) "no worse than naive" true
    (Rat.compare r.Oi.loss (C.minimax_loss c g) <= 0);
  Alcotest.check rat "reported = recomputed" r.Oi.loss (C.minimax_loss c r.Oi.induced)

let test_interaction_of_identity_is_free () =
  (* Deploying the identity (no privacy): consumer loses nothing. *)
  let c = consumer () in
  let r = Oi.solve ~deployed:(M.identity 3) c in
  Alcotest.check rat "zero loss" Rat.zero r.Oi.loss

let test_interaction_row_stochastic () =
  let c = consumer ~loss:L.squared ~si:(Si.interval ~n:3 1 2) () in
  let g = Geo.matrix ~n:3 ~alpha:(q 1 4) in
  let r = Oi.solve ~deployed:g c in
  Alcotest.(check bool) "T stochastic" true (Linalg.Matrix.Q.is_row_stochastic r.Oi.interaction)

let test_interaction_side_info_clamps () =
  (* Example 1 from the paper: S = {l..n}. The optimal interaction must
     never output below l. *)
  let l = 2 and n = 3 in
  let c = consumer ~si:(Si.at_least ~n l) () in
  let g = Geo.matrix ~n ~alpha:half in
  let r = Oi.solve ~deployed:g c in
  let induced = r.Oi.induced in
  (* Any mass the induced mechanism puts below l on rows in S would be
     wasted; the optimum removes it. *)
  List.iter
    (fun i ->
      for out = 0 to l - 1 do
        Alcotest.check rat (Printf.sprintf "no mass at %d (row %d)" out i) Rat.zero
          (M.prob induced ~input:i ~output:out)
      done)
    [ 2; 3 ]

(* --------------------------------------------------------------- *)
(* Theorem 1(2): universality                                       *)
(* --------------------------------------------------------------- *)

let test_universality_table1 () =
  (* The paper's Table 1 example: n=3, l=|i−r|, S full. *)
  let c = consumer () in
  List.iter
    (fun alpha ->
      let cmp = U.compare_for ~alpha c in
      Alcotest.(check bool) "equal losses" true (U.universality_holds cmp);
      Alcotest.(check bool) "induced DP" true (U.induced_is_private cmp))
    [ q 1 4; half ]

let test_universality_known_values () =
  (* Exact values computed by the exact LP for the Table-1 consumer. *)
  let c = consumer () in
  let cmp = U.compare_for ~alpha:half c in
  Alcotest.check rat "alpha=1/2 loss" (q 28 39) cmp.U.tailored_loss;
  let cmp4 = U.compare_for ~alpha:(q 1 4) c in
  Alcotest.check rat "alpha=1/4 loss" (q 168 415) cmp4.U.tailored_loss

let test_universality_sweep () =
  (* Grid over losses × side infos × α × n — the heart of Theorem 1. *)
  List.iter
    (fun n ->
      List.iter
        (fun alpha ->
          let comparisons =
            U.sweep ~alpha
              ~losses:[ L.absolute; L.zero_one ]
              ~side_infos:(U.default_side_infos n)
              ()
          in
          List.iter
            (fun cmp ->
              if not (U.universality_holds cmp) then
                Alcotest.failf "universality fails: n=%d α=%s consumer=%s (%s vs %s)" n
                  (Rat.to_string alpha)
                  (C.label cmp.U.consumer)
                  (Rat.to_string cmp.U.tailored_loss)
                  (Rat.to_string cmp.U.universal_loss))
            comparisons)
        [ q 1 3; q 2 3 ])
    [ 2; 4 ]

let test_universality_asymmetric_loss () =
  let c = consumer ~loss:(L.asymmetric ~over:Rat.one ~under:(q 3 1)) () in
  let cmp = U.compare_for ~alpha:half c in
  Alcotest.(check bool) "asymmetric loss too" true (U.universality_holds cmp)

let test_interaction_genuinely_randomized () =
  (* §2.7: minimax consumers may need randomized post-processing. For
     the Table-1 consumer the optimal T has a strictly fractional
     row. *)
  let c = consumer () in
  let cmp = U.compare_for ~alpha:(q 1 4) c in
  Alcotest.(check bool) "not deterministic" false
    (Minimax.Bayesian.is_deterministic cmp.U.interaction)

let test_naive_strictly_worse_sometimes () =
  (* With side information, ignoring it must cost something: the naive
     loss is strictly worse than the universal one for a lower-bound
     consumer. *)
  let c = consumer ~si:(Si.at_least ~n:3 2) () in
  let cmp = U.compare_for ~alpha:half c in
  Alcotest.(check bool) "naive > universal" true
    (Rat.compare cmp.U.naive_loss cmp.U.universal_loss > 0)

(* --------------------------------------------------------------- *)
(* Property tests                                                   *)
(* --------------------------------------------------------------- *)

let arb_alpha =
  QCheck.make ~print:Rat.to_string
    QCheck.Gen.(map2 (fun a b -> Rat.of_ints a (a + b)) (int_range 1 6) (int_range 1 6))

let arb_side_info_n3 =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(
      map
        (fun mask ->
          let l = List.filter (fun i -> mask land (1 lsl i) <> 0) [ 0; 1; 2; 3 ] in
          if l = [] then [ 0 ] else l)
        (int_range 1 15))

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* A random consumer for n <= 6: a loss *table* — zero on the
   diagonal, non-decreasing walking outward on each side of i by
   random integer steps — and random side information. *)
type table_consumer = { tn : int; table : int array array; members : int list }

let gen_table_consumer =
  QCheck.Gen.(
    int_range 1 6 >>= fun tn ->
    let steps = array_repeat (tn + 1) (array_repeat (tn + 1) (int_range 0 3)) in
    map2
      (fun steps mask ->
        let table =
          Array.init (tn + 1) (fun i ->
              let row = Array.make (tn + 1) 0 in
              for r = i + 1 to tn do
                row.(r) <- row.(r - 1) + steps.(i).(r)
              done;
              for r = i - 1 downto 0 do
                row.(r) <- row.(r + 1) + steps.(i).(r)
              done;
              row)
        in
        let members = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init (tn + 1) Fun.id) in
        { tn; table; members = (if members = [] then [ tn / 2 ] else members) })
      steps
      (int_range 1 ((1 lsl (tn + 1)) - 1)))

let arb_table_consumer =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "n=%d S={%s} loss=[%s]" c.tn
        (String.concat "," (List.map string_of_int c.members))
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun row -> String.concat " " (Array.to_list (Array.map string_of_int row)))
                 c.table))))
    gen_table_consumer

let table_loss c = L.make ~name:"table" (fun i r -> Rat.of_int c.table.(i).(r))

let properties =
  [
    prop "universality on random consumers (n=3)" 20
      (QCheck.pair arb_alpha arb_side_info_n3)
      (fun (alpha, members) ->
        let si = Si.make ~n:3 members in
        let c = C.make ~loss:L.absolute ~side_info:si () in
        U.universality_holds (U.compare_for ~alpha c));
    (* Theorem 1 on the serve path: without the tailored rung, the
       ladder still serves the §2.5 optimum exactly, on a certified
       geometric rung, for monotone loss tables beyond the named
       families. *)
    prop "serve reaches the tailored optimum on random loss tables (n<=6)" 40
      (QCheck.pair arb_alpha arb_table_consumer)
      (fun (alpha, tc) ->
        let loss = table_loss tc in
        QCheck.assume (L.is_monotone loss ~n:tc.tn);
        let c = C.make ~loss ~side_info:(Si.make ~n:tc.tn tc.members) () in
        let s = Minimax.Serve.serve ~alpha c in
        let p = s.Minimax.Serve.provenance in
        p.Minimax.Serve.rung = Minimax.Serve.Geometric_remap
        && p.Minimax.Serve.attempts = []
        && Rat.equal s.Minimax.Serve.loss (Om.solve ~alpha c).Om.loss
        &&
        match Check.Invariants.audit_release ~alpha (M.matrix s.Minimax.Serve.mechanism) with
        | Ok certs ->
          List.map (fun ce -> ce.Check.Invariants.cert_rule) certs = p.Minimax.Serve.checks
        | Error _ -> false);
    prop "tailored optimum <= any fixed DP mechanism's loss" 15
      (QCheck.pair arb_alpha arb_side_info_n3)
      (fun (alpha, members) ->
        let si = Si.make ~n:3 members in
        let c = C.make ~loss:L.absolute ~side_info:si () in
        let opt = Om.solve ~alpha c in
        (* compare against randomized response tuned to alpha *)
        let rr = Mech.Baselines.randomized_response_dp ~n:3 ~alpha in
        Rat.compare opt.Om.loss (C.minimax_loss c rr) <= 0);
    prop "interaction never hurts" 15 (QCheck.pair arb_alpha arb_side_info_n3)
      (fun (alpha, members) ->
        let si = Si.make ~n:3 members in
        let c = C.make ~loss:L.squared ~side_info:si () in
        let g = Geo.matrix ~n:3 ~alpha in
        let r = Oi.solve ~deployed:g c in
        Rat.compare r.Oi.loss (C.minimax_loss c g) <= 0);
    prop "smaller side info never increases optimal loss" 10 arb_alpha (fun alpha ->
        let big = C.make ~loss:L.absolute ~side_info:(Si.full 3) () in
        let small = C.make ~loss:L.absolute ~side_info:(Si.interval ~n:3 1 2) () in
        Rat.compare (Om.solve ~alpha small).Om.loss (Om.solve ~alpha big).Om.loss <= 0);
  ]

let () =
  Alcotest.run "minimax"
    [
      ( "losses",
        [
          Alcotest.test_case "values" `Quick test_loss_values;
          Alcotest.test_case "monotonicity" `Quick test_loss_monotone;
          Alcotest.test_case "properness" `Quick test_loss_proper;
        ] );
      ("side-info", [ Alcotest.test_case "constructors" `Quick test_side_info ]);
      ( "optimal-mechanism",
        [
          Alcotest.test_case "dp and stochastic" `Quick test_optimal_is_dp_and_stochastic;
          Alcotest.test_case "beats raw geometric" `Quick test_optimal_beats_geometric;
          Alcotest.test_case "loss consistency" `Quick test_optimal_loss_matches_mechanism;
          Alcotest.test_case "monotone in alpha" `Slow test_optimal_monotone_in_alpha;
          Alcotest.test_case "extreme privacy" `Quick test_optimal_extreme_privacy;
          Alcotest.test_case "singleton side info" `Quick test_optimal_with_singleton_side_info;
          Alcotest.test_case "fast path agrees (Thm 1)" `Quick test_fast_path_agrees;
          Alcotest.test_case "structured same loss" `Quick test_structured_same_loss;
          Alcotest.test_case "Lemma 5 pattern" `Slow test_lemma5_pattern;
        ] );
      ( "optimal-interaction",
        [
          Alcotest.test_case "improves on naive" `Quick test_interaction_improves;
          Alcotest.test_case "identity deployment" `Quick test_interaction_of_identity_is_free;
          Alcotest.test_case "T stochastic" `Quick test_interaction_row_stochastic;
          Alcotest.test_case "side info clamps" `Quick test_interaction_side_info_clamps;
        ] );
      ( "universality",
        [
          Alcotest.test_case "Table 1 consumer" `Quick test_universality_table1;
          Alcotest.test_case "known exact losses" `Quick test_universality_known_values;
          Alcotest.test_case "sweep" `Slow test_universality_sweep;
          Alcotest.test_case "asymmetric loss" `Quick test_universality_asymmetric_loss;
          Alcotest.test_case "randomized interaction" `Quick test_interaction_genuinely_randomized;
          Alcotest.test_case "naive strictly worse" `Quick test_naive_strictly_worse_sometimes;
        ] );
      ("properties", properties);
    ]
