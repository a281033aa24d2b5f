(* Quickstart: deploy the geometric mechanism for a count query and
   post-process it as a rational minimax consumer.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A database of individuals and a count query. *)
  let rng = Prob.Rng.of_int 7 in
  let n = 10 in
  let db = Dpdb.Generator.population rng n ~flu_rate:0.3 in
  let true_count = Dpdb.Count_query.eval Dpdb.Generator.flu_anywhere db in
  Printf.printf "database size           : %d\n" n;
  Printf.printf "true flu count          : %d\n" true_count;

  (* 2. Pick a privacy level and build the geometric mechanism
        (Definition 4 of the paper). alpha closer to 1 = more private. *)
  let alpha = Rat.of_ints 1 3 in
  let mechanism = Mech.Geometric.matrix ~n ~alpha in
  assert (Mech.Mechanism.is_dp ~alpha mechanism);

  (* 3. Release a perturbed count. *)
  let released = Mech.Mechanism.sample mechanism ~input:true_count rng in
  Printf.printf "released (perturbed)    : %d\n" released;

  (* 4. A consumer with side information refines the release. This one
        knows the count is at least 2 and cares about absolute error. *)
  let side_info = Minimax.Side_info.at_least ~n 2 in
  let consumer = Minimax.Consumer.make ~loss:Minimax.Loss.absolute ~side_info () in
  let interaction = Minimax.Optimal_interaction.solve ~deployed:mechanism consumer in

  (* 5. Reinterpret the released value through the optimal interaction:
        sample exactly from row [released] of the interaction matrix. *)
  let row = interaction.Minimax.Optimal_interaction.interaction.(released) in
  let refined = Mech.Sampler.draw (Mech.Sampler.of_row row) rng in
  Printf.printf "consumer reinterpreted  : %d\n" refined;

  (* 6. The punchline (Theorem 1): this consumer's loss equals the loss
        of the best alpha-DP mechanism built specifically for it. *)
  let tailored = Minimax.Optimal_mechanism.solve ~alpha consumer in
  Printf.printf "loss via geometric      : %s\n"
    (Rat.to_string interaction.Minimax.Optimal_interaction.loss);
  Printf.printf "loss of tailored optimum: %s\n"
    (Rat.to_string tailored.Minimax.Optimal_mechanism.loss);
  assert (
    Rat.equal interaction.Minimax.Optimal_interaction.loss
      tailored.Minimax.Optimal_mechanism.loss);
  print_endline "universality verified: the deployed geometric mechanism was optimal for this consumer."
