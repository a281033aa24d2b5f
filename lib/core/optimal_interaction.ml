(** The consumer's optimal interaction with a deployed mechanism
    (§2.4.3).

    Given deployed mechanism [y] and a consumer [(l, S)], find the
    row-stochastic reinterpretation [T] minimizing the minimax loss of
    the induced mechanism [x = y·T]:

    {v
      minimize  d
      s.t.      Σ_{r,r'} y_{i,r}·l(i,r')·T_{r,r'} <= d     ∀ i ∈ S
                Σ_{r'} T_{r,r'} = 1                        ∀ r
                T_{r,r'} >= 0
    v}

    All data is exact, so the returned loss is the true optimum. *)

type result = {
  interaction : Rat.t array array;  (** the optimal [T*] *)
  induced : Mech.Mechanism.t;  (** [x = y·T*] *)
  loss : Rat.t;  (** minimax loss of the induced mechanism *)
}

let build_problem ~(deployed : Mech.Mechanism.t) (consumer : Consumer.t) =
  let n = Mech.Mechanism.n deployed in
  if Consumer.n consumer <> n then
    invalid_arg "Optimal_interaction.solve: consumer range does not match mechanism";
  let p = Lp.make () in
  let t_var = Array.init (n + 1) (fun r -> Array.init (n + 1) (fun r' -> Lp.fresh_var ~name:(Printf.sprintf "T_%d_%d" r r') p)) in
  let d = Lp.fresh_var ~name:"d" p in
  (* Row-stochasticity of T. *)
  for r = 0 to n do
    Lp.add_eq p (Lp.Expr.sum (List.init (n + 1) (fun r' -> Lp.Expr.var t_var.(r).(r')))) Rat.one
  done;
  (* Loss bound for each i in S. *)
  let loss = Consumer.loss consumer in
  List.iter
    (fun i ->
      let terms =
        List.concat_map
          (fun r ->
            let y_ir = Mech.Mechanism.prob deployed ~input:i ~output:r in
            if Rat.is_zero y_ir then []
            else
              List.filter_map
                (fun r' ->
                  let coeff = Rat.mul y_ir (Loss.eval loss i r') in
                  if Rat.is_zero coeff then None
                  else Some (Lp.Expr.term coeff t_var.(r).(r')))
                (List.init (n + 1) Fun.id))
          (List.init (n + 1) Fun.id)
      in
      Lp.add_le p (Lp.Expr.sub (Lp.Expr.sum terms) (Lp.Expr.var d)) Rat.zero)
    (Side_info.members (Consumer.side_info consumer));
  Lp.set_objective p Lp.Minimize (Lp.Expr.var d);
  (p, t_var)

let solve_budgeted ?budget ?solver ~deployed consumer =
  let n = Mech.Mechanism.n deployed in
  Obs.span ~attrs:[ ("n", Obs.Int n) ] "core.optimal_interaction" @@ fun () ->
  let p, t_var = build_problem ~deployed consumer in
  let outcome =
    match solver with
    | Some s -> (Lp.Solver.solve ?budget s p).Lp.Solver.outcome
    | None -> Lp.solve ?budget p
  in
  match outcome with
  | Lp.Optimal sol ->
    let interaction =
      Array.init (n + 1) (fun r -> Array.init (n + 1) (fun r' -> sol.values.(t_var.(r).(r'))))
    in
    let induced = Mech.Mechanism.compose deployed interaction in
    Ok { interaction; induced; loss = sol.objective }
  | Lp.Failed e -> Error e

let solve ?solver ~deployed consumer =
  match solve_budgeted ?solver ~deployed consumer with
  | Ok r -> r
  | Error e ->
    (* The identity interaction is always feasible and the loss is
       bounded below by 0, so an unbudgeted solve cannot fail. *)
    Lp.Solver_error.fail ~context:"Optimal_interaction.solve" e
