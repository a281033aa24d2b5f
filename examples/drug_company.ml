(* Example 1 of the paper: the drug company.

   The company knows l people bought its flu drug this month — so the
   true flu count is at least l. It reads the published (geometric-
   perturbed) count and reinterprets it through its own optimal
   interaction. The example shows:

     1. the optimal interaction clamps impossible outputs into S={l..n};
     2. the refined estimate is strictly better than the naive reading;
     3. the refined loss equals the tailored LP optimum (Theorem 1).

   Run with:  dune exec examples/drug_company.exe *)

module Oi = Minimax.Optimal_interaction

let () =
  let rng = Prob.Rng.of_int 11 in
  let n = 12 in

  (* Survey a population in which drug buyers all have flu, so the
     drug-sales count is a certified lower bound on the flu count. *)
  let db = Dpdb.Generator.population rng n ~flu_rate:0.55 ~drug_rate_given_flu:0.6 in
  let flu = Dpdb.Count_query.eval Dpdb.Generator.flu_anywhere db in
  let sales = Dpdb.Count_query.eval Dpdb.Generator.drug_query db in
  Printf.printf "true flu count  : %d (secret)\n" flu;
  Printf.printf "drug sales      : %d (company's own books => flu >= %d)\n\n" sales sales;

  (* The agency deploys the geometric mechanism once, for everyone. *)
  let alpha = Rat.of_ints 1 2 in
  let deployed = Mech.Geometric.matrix ~n ~alpha in

  (* The company's decision-theoretic profile: it plans production, so
     squared loss (over/under-production both hurt, quadratically). *)
  let side_info = Minimax.Side_info.at_least ~n sales in
  let consumer =
    Minimax.Consumer.make ~label:"drug company" ~loss:Minimax.Loss.squared ~side_info ()
  in
  let result = Oi.solve ~deployed consumer in

  (* 1. The interaction never outputs below the known lower bound. *)
  let t = result.Oi.interaction in
  let clamps = ref true in
  for r = 0 to n do
    for r' = 0 to sales - 1 do
      if not (Rat.is_zero t.(r).(r')) then clamps := false
    done
  done;
  Printf.printf "interaction maps every output into {%d..%d}: %b\n" sales n !clamps;

  (* 2. Worst-case loss: naive reading vs optimal interaction. *)
  let naive = Minimax.Consumer.minimax_loss consumer deployed in
  Printf.printf "worst-case squared loss, naive reading      : %s\n"
    (Rat.to_decimal_string ~places:4 naive);
  Printf.printf "worst-case squared loss, optimal interaction: %s\n"
    (Rat.to_decimal_string ~places:4 result.Oi.loss);

  (* 3. Theorem 1: this equals the best the agency could have done for
        the company specifically. *)
  let tailored = Minimax.Optimal_mechanism.solve ~alpha consumer in
  Printf.printf "tailored LP optimum                         : %s\n"
    (Rat.to_decimal_string ~places:4 tailored.Minimax.Optimal_mechanism.loss);
  assert (Rat.equal result.Oi.loss tailored.Minimax.Optimal_mechanism.loss);
  print_newline ();

  (* A concrete reading session: simulate the full pipeline many times
     and compare naive vs refined mean squared error at the true
     count. *)
  let trials = 50_000 in
  let sq_naive = ref 0 and sq_refined = ref 0 in
  (* Exact samplers, built once: the deployed row at the true count
     and every row of the interaction. *)
  let publish = Mech.Sampler.of_row (Mech.Mechanism.row deployed flu) in
  let refine = Array.map Mech.Sampler.of_row t in
  for _ = 1 to trials do
    let published = Mech.Sampler.draw publish rng in
    let refined = Mech.Sampler.draw refine.(published) rng in
    sq_naive := !sq_naive + ((published - flu) * (published - flu));
    sq_refined := !sq_refined + ((refined - flu) * (refined - flu))
  done;
  Printf.printf "Monte-Carlo at the true count (%d trials):\n" trials;
  Printf.printf "  naive MSE   : %.4f\n" (float_of_int !sq_naive /. float_of_int trials);
  Printf.printf "  refined MSE : %.4f\n" (float_of_int !sq_refined /. float_of_int trials)
