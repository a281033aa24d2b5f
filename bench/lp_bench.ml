(* LP engine gate: a trimmed THM1 sweep run twice — once through
   [Universal.compare_for] on one revised-simplex [Lp.Solver] session
   (warm starts enabled), once by solving the same two LPs per consumer
   (the tailored LP of [Optimal_mechanism.build_problem], the
   interaction LP of [Optimal_interaction.build_problem]) on the dense
   tableau oracle of the test-only [lp_oracle] library — requiring

   1. byte-identical certified outputs: every consumer's tailored,
      universal, and naive losses, and the universality verdict,
      rendered identically by both sides;
   2. a hard wall-clock ratio: the revised session must beat the
      oracle by at least [min_speedup] on the same grid.

   `dune build @lp-bench` (or `make lp-bench`) runs it. The full
   420-consumer sweep lives in THM1 (bench/main.exe); this trimmed
   grid keeps the gate cheap enough to run on every bench pass. *)

module U = Minimax.Universal
module C = Minimax.Consumer
module L = Minimax.Loss
module Om = Minimax.Optimal_mechanism
module Oi = Minimax.Optimal_interaction

let q = Rat.of_ints

(* Trimmed grid: n = 7 dominates the wall clock and is where the
   revised engine's advantage is unambiguous; the α-sweep (innermost)
   is what exercises warm starts, so it is kept whole. *)
let ns = [ 5; 7 ]
let losses = [ L.absolute; L.capped ~cap:2 ]
let alphas = [ q 1 4; q 1 2; q 3 4 ]

(* Conservative floor: the measured engine-vs-engine ratio on this
   grid is a stable 3.0x (the 13.7x THM1 headline additionally counts
   the Rat fast paths, which speed up both engines); gate at 2.0x so
   machine noise cannot flip the verdict while a real regression —
   losing warm starts, or the eta chain degenerating to dense work —
   still trips. *)
let min_speedup = 2.0

type row = { label : string; tailored : string; universal : string; naive : string; holds : bool }

let row ~n ~alpha consumer ~tailored ~universal ~naive =
  {
    label = Printf.sprintf "n=%d a=%s %s" n (Rat.to_string alpha) (C.label consumer);
    tailored = Rat.to_string tailored;
    universal = Rat.to_string universal;
    naive = Rat.to_string naive;
    holds = Rat.equal tailored universal;
  }

(* The revised side: the production comparison on one session. *)
let revised solver ~n ~alpha consumer =
  let cmp = U.compare_for ~solver ~alpha consumer in
  row ~n ~alpha consumer ~tailored:cmp.U.tailored_loss ~universal:cmp.U.universal_loss
    ~naive:cmp.U.naive_loss

(* The oracle side: the same two LPs, cold, on the dense tableau. *)
let oracle ~n ~alpha consumer =
  let optimum p =
    match fst (Lp_oracle.solve p) with
    | Lp.Optimal s -> s.Lp.objective
    | Lp.Failed e -> Lp.Solver_error.fail ~context:"lp_bench.oracle" e
  in
  let geometric = Mech.Geometric.matrix ~n ~alpha in
  let p, _, d = Om.build_problem ~alpha ~n consumer in
  Lp.set_objective p Lp.Minimize (Lp.Expr.var d);
  let tailored = optimum p in
  let universal = optimum (fst (Oi.build_problem ~deployed:geometric consumer)) in
  row ~n ~alpha consumer ~tailored ~universal ~naive:(C.minimax_loss consumer geometric)

let sweep compare =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun loss ->
          List.concat_map
            (fun side_info ->
              List.map (fun alpha -> compare ~n ~alpha (C.make ~loss ~side_info ())) alphas)
            (U.default_side_infos n))
        losses)
    ns

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let revised, t_revised = timed (fun () -> sweep (revised (Lp.Solver.create ()))) in
  let oracle, t_oracle = timed (fun () -> sweep oracle) in
  let failures = ref 0 in
  List.iter2
    (fun r o ->
      let mismatches =
        (if String.equal r.tailored o.tailored then [] else [ "tailored" ])
        @ (if String.equal r.universal o.universal then [] else [ "universal" ])
        @ (if String.equal r.naive o.naive then [] else [ "naive" ])
        @ if r.holds = o.holds then [] else [ "verdict" ]
      in
      if mismatches <> [] then begin
        incr failures;
        Printf.printf "MISMATCH %s: %s differ (revised %s/%s/%s vs oracle %s/%s/%s)\n"
          r.label
          (String.concat "," mismatches)
          r.tailored r.universal r.naive o.tailored o.universal o.naive
      end;
      if not r.holds then begin
        incr failures;
        Printf.printf "UNIVERSALITY FAIL %s: tailored %s <> universal %s\n" r.label
          r.tailored r.universal
      end)
    revised oracle;
  let ratio = t_oracle /. t_revised in
  Printf.printf "lp-bench: %d consumers, revised %.2fs, oracle %.2fs, speedup %.1fx (floor %.1fx)\n"
    (List.length revised) t_revised t_oracle ratio min_speedup;
  if ratio < min_speedup then begin
    incr failures;
    Printf.printf "SPEEDUP GATE FAIL: %.2fx < %.2fx\n" ratio min_speedup
  end;
  if !failures > 0 then begin
    Printf.printf "lp-bench: FAIL (%d problems)\n" !failures;
    exit 1
  end;
  print_endline "lp-bench: PASS"
