(* Tests for the exact LP solver: textbook problems with known optima,
   degenerate/cycling-prone problems (Bland's rule), infeasibility and
   unboundedness detection, and randomized cross-validation against a
   brute-force vertex enumerator on small instances. *)

let q = Rat.of_ints
let rat = Alcotest.testable Rat.pp Rat.equal

let solve_expect_optimal p =
  match Lp.solve p with
  | Lp.Optimal s ->
    Alcotest.(check bool) "certificate" true (Lp.check_solution p s);
    s
  | Lp.Failed Lp.Solver_error.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Failed e -> Alcotest.fail (Lp.Solver_error.to_string e)

(* --------------------------------------------------------------- *)
(* Textbook cases                                                   *)
(* --------------------------------------------------------------- *)

let test_basic_max () =
  let p = Lp.make () in
  let x = Lp.fresh_var p and y = Lp.fresh_var p in
  Lp.add_le p (Lp.Expr.var x) (q 4 1);
  Lp.add_le p (Lp.Expr.term (q 2 1) y) (q 12 1);
  Lp.add_le p Lp.Expr.(add (term (q 3 1) x) (term (q 2 1) y)) (q 18 1);
  Lp.set_objective p Lp.Maximize Lp.Expr.(add (term (q 3 1) x) (term (q 5 1) y));
  let s = solve_expect_optimal p in
  Alcotest.check rat "objective" (q 36 1) s.objective;
  Alcotest.check rat "x" (q 2 1) s.values.(x);
  Alcotest.check rat "y" (q 6 1) s.values.(y)

let test_basic_min () =
  (* min x + y s.t. x + 2y >= 4, 3x + y >= 6  => (8/5, 6/5), obj 14/5 *)
  let p = Lp.make () in
  let x = Lp.fresh_var p and y = Lp.fresh_var p in
  Lp.add_ge p Lp.Expr.(add (var x) (term (q 2 1) y)) (q 4 1);
  Lp.add_ge p Lp.Expr.(add (term (q 3 1) x) (var y)) (q 6 1);
  Lp.set_objective p Lp.Minimize Lp.Expr.(add (var x) (var y));
  let s = solve_expect_optimal p in
  Alcotest.check rat "objective" (q 14 5) s.objective;
  Alcotest.check rat "x" (q 8 5) s.values.(x);
  Alcotest.check rat "y" (q 6 5) s.values.(y)

let test_equality_constraints () =
  (* min 2x + 3y s.t. x + y = 10, x - y = 2  => x=6, y=4, obj 24 *)
  let p = Lp.make () in
  let x = Lp.fresh_var p and y = Lp.fresh_var p in
  Lp.add_eq p Lp.Expr.(add (var x) (var y)) (q 10 1);
  Lp.add_eq p Lp.Expr.(sub (var x) (var y)) (q 2 1);
  Lp.set_objective p Lp.Minimize Lp.Expr.(add (term (q 2 1) x) (term (q 3 1) y));
  let s = solve_expect_optimal p in
  Alcotest.check rat "objective" (q 24 1) s.objective

let test_infeasible () =
  let p = Lp.make () in
  let x = Lp.fresh_var p in
  Lp.add_ge p (Lp.Expr.var x) (q 3 1);
  Lp.add_le p (Lp.Expr.var x) (q 1 1);
  Lp.set_objective p Lp.Minimize (Lp.Expr.var x);
  match Lp.solve p with
  | Lp.Failed Lp.Solver_error.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_infeasible_eq () =
  let p = Lp.make () in
  let x = Lp.fresh_var p and y = Lp.fresh_var p in
  Lp.add_eq p Lp.Expr.(add (var x) (var y)) Rat.one;
  Lp.add_eq p Lp.Expr.(add (var x) (var y)) Rat.two;
  Lp.set_objective p Lp.Minimize (Lp.Expr.var x);
  match Lp.solve p with
  | Lp.Failed Lp.Solver_error.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let p = Lp.make () in
  let x = Lp.fresh_var p in
  Lp.set_objective p Lp.Maximize (Lp.Expr.var x);
  match Lp.solve p with
  | Lp.Failed Lp.Solver_error.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_unbounded_direction () =
  (* max x - y with x - y <= unconstrained growth along x=y+t... here
     max x + y s.t. x - y <= 1 is unbounded. *)
  let p = Lp.make () in
  let x = Lp.fresh_var p and y = Lp.fresh_var p in
  Lp.add_le p Lp.Expr.(sub (var x) (var y)) Rat.one;
  Lp.set_objective p Lp.Maximize Lp.Expr.(add (var x) (var y));
  match Lp.solve p with
  | Lp.Failed Lp.Solver_error.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_free_variables () =
  (* Free variable reaching a negative optimum. *)
  let p = Lp.make () in
  let x = Lp.fresh_var ~lb:None p in
  Lp.add_ge p (Lp.Expr.var x) (q (-7) 2);
  Lp.set_objective p Lp.Minimize (Lp.Expr.var x);
  let s = solve_expect_optimal p in
  Alcotest.check rat "objective" (q (-7) 2) s.objective

let test_lower_bounds () =
  (* Variable with nonzero lower bound. min x+y, x >= 2 (bound), y >= 0,
     x + y >= 5 => obj 5 with x in [2,5]. *)
  let p = Lp.make () in
  let x = Lp.fresh_var ~lb:(Some (q 2 1)) p and y = Lp.fresh_var p in
  Lp.add_ge p Lp.Expr.(add (var x) (var y)) (q 5 1);
  Lp.set_objective p Lp.Minimize Lp.Expr.(add (var x) (var y));
  let s = solve_expect_optimal p in
  Alcotest.check rat "objective" (q 5 1) s.objective;
  Alcotest.(check bool) "x bound respected" true (Rat.compare s.values.(x) (q 2 1) >= 0)

let test_constant_in_objective () =
  let p = Lp.make () in
  let x = Lp.fresh_var p in
  Lp.add_le p (Lp.Expr.var x) (q 3 1);
  Lp.set_objective p Lp.Maximize (Lp.Expr.add_const (Lp.Expr.var x) (q 10 1));
  let s = solve_expect_optimal p in
  Alcotest.check rat "objective includes constant" (q 13 1) s.objective

let test_degenerate_beale () =
  (* Beale's classic cycling example — Bland's rule must terminate.
     min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
     s.t. 1/4 x4 - 60 x5 - 1/25 x6 + 9 x7 <= 0
          1/2 x4 - 90 x5 - 1/50 x6 + 3 x7 <= 0
          x6 <= 1
     optimum -1/20. *)
  let p = Lp.make () in
  let x4 = Lp.fresh_var p and x5 = Lp.fresh_var p in
  let x6 = Lp.fresh_var p and x7 = Lp.fresh_var p in
  Lp.add_le p
    Lp.Expr.(sum [ term (q 1 4) x4; term (q (-60) 1) x5; term (q (-1) 25) x6; term (q 9 1) x7 ])
    Rat.zero;
  Lp.add_le p
    Lp.Expr.(sum [ term (q 1 2) x4; term (q (-90) 1) x5; term (q (-1) 50) x6; term (q 3 1) x7 ])
    Rat.zero;
  Lp.add_le p (Lp.Expr.var x6) Rat.one;
  Lp.set_objective p Lp.Minimize
    Lp.Expr.(sum [ term (q (-3) 4) x4; term (q 150 1) x5; term (q (-1) 50) x6; term (q 6 1) x7 ]);
  let s = solve_expect_optimal p in
  Alcotest.check rat "Beale optimum" (q (-1) 20) s.objective

let test_duplicate_terms_normalized () =
  (* x + x should behave as 2x. *)
  let p = Lp.make () in
  let x = Lp.fresh_var p in
  Lp.add_le p Lp.Expr.(add (var x) (var x)) (q 10 1);
  Lp.set_objective p Lp.Maximize (Lp.Expr.var x);
  let s = solve_expect_optimal p in
  Alcotest.check rat "objective" (q 5 1) s.objective

let test_redundant_rows () =
  (* Same constraint twice => phase 1 leaves a redundant artificial. *)
  let p = Lp.make () in
  let x = Lp.fresh_var p and y = Lp.fresh_var p in
  Lp.add_eq p Lp.Expr.(add (var x) (var y)) (q 4 1);
  Lp.add_eq p Lp.Expr.(add (var x) (var y)) (q 4 1);
  Lp.add_eq p Lp.Expr.(sum [ term (q 2 1) x; term (q 2 1) y ]) (q 8 1);
  Lp.set_objective p Lp.Maximize (Lp.Expr.var x);
  let s = solve_expect_optimal p in
  Alcotest.check rat "objective" (q 4 1) s.objective

let test_zero_objective () =
  (* Pure feasibility problem. *)
  let p = Lp.make () in
  let x = Lp.fresh_var p in
  Lp.add_eq p (Lp.Expr.var x) (q 3 1);
  Lp.set_objective p Lp.Minimize Lp.Expr.zero;
  let s = solve_expect_optimal p in
  Alcotest.check rat "objective" Rat.zero s.objective;
  Alcotest.check rat "x pinned" (q 3 1) s.values.(x)

let test_expr_eval () =
  let p = Lp.make () in
  let x = Lp.fresh_var p and y = Lp.fresh_var p in
  ignore p;
  let e = Lp.Expr.(add_const (sum [ term (q 2 1) x; term (q 3 1) y; term (q (-1) 1) x ]) (q 5 1)) in
  let v = Lp.Expr.eval [| q 10 1; q 1 1 |] (Lp.Expr.normalize e) in
  (* (2-1)*10 + 3*1 + 5 = 18 *)
  Alcotest.check rat "eval" (q 18 1) v

(* --------------------------------------------------------------- *)
(* Randomized cross-validation against vertex enumeration            *)
(* --------------------------------------------------------------- *)

(* For a 2-variable problem  max c.x  s.t.  A x <= b, x >= 0, optimal
   value (if bounded & feasible) is attained at the intersection of two
   constraint lines (including axes). Enumerate all intersections,
   filter feasible, take the best. *)
let brute_force_2d (constraints : (Rat.t * Rat.t * Rat.t) list) (cx, cy) =
  let module Qm = Lp_oracle.Q in
  let lines = (Rat.one, Rat.zero, Rat.zero) :: (Rat.zero, Rat.one, Rat.zero) :: List.map (fun (a, b, c) -> (a, b, c)) constraints in
  (* line: a x + b y = c for constraint rows (tight); axes x=0, y=0. *)
  let feasible (x, y) =
    Rat.sign x >= 0 && Rat.sign y >= 0
    && List.for_all
         (fun (a, b, c) ->
           Rat.compare (Rat.add (Rat.mul a x) (Rat.mul b y)) c <= 0)
         constraints
  in
  let best = ref None in
  List.iteri
    (fun i (a1, b1, c1) ->
      List.iteri
        (fun j (a2, b2, c2) ->
          if j > i then begin
            let m = Qm.of_rows [ [ a1; b1 ]; [ a2; b2 ] ] in
            match Qm.solve m [| c1; c2 |] with
            | None -> ()
            | Some pt ->
              let x, y = (pt.(0), pt.(1)) in
              if feasible (x, y) then begin
                let v = Rat.add (Rat.mul cx x) (Rat.mul cy y) in
                match !best with
                | None -> best := Some v
                | Some b -> if Rat.compare v b > 0 then best := Some v
              end
          end)
        lines)
    lines;
  !best

let arb_2d_lp =
  let gen st =
    let coef () = Rat.of_ints (QCheck.Gen.int_range 1 9 st) 1 in
    let rhs () = Rat.of_ints (QCheck.Gen.int_range 1 20 st) 1 in
    let ncons = 2 + QCheck.Gen.int_bound 3 st in
    let constraints = List.init ncons (fun _ -> (coef (), coef (), rhs ())) in
    let obj = (coef (), coef ()) in
    (constraints, obj)
  in
  QCheck.make
    ~print:(fun (cs, (cx, cy)) ->
      Printf.sprintf "max %sx+%sy s.t. %s" (Rat.to_string cx) (Rat.to_string cy)
        (String.concat "; "
           (List.map
              (fun (a, b, c) ->
                Printf.sprintf "%sx+%sy<=%s" (Rat.to_string a) (Rat.to_string b) (Rat.to_string c))
              cs)))
    gen

let prop_2d_matches_brute_force =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"simplex matches vertex enumeration (2d)" ~count:100 arb_2d_lp
       (fun (constraints, (cx, cy)) ->
         let p = Lp.make () in
         let x = Lp.fresh_var p and y = Lp.fresh_var p in
         List.iter
           (fun (a, b, c) -> Lp.add_le p Lp.Expr.(add (term a x) (term b y)) c)
           constraints;
         Lp.set_objective p Lp.Maximize Lp.Expr.(add (term cx x) (term cy y));
         match (Lp.solve p, brute_force_2d constraints (cx, cy)) with
         | Lp.Optimal s, Some v -> Rat.equal s.objective v
         | Lp.Optimal _, None -> false
         | Lp.Failed _, _ -> false
         (* all-positive coefficients with positive rhs: always feasible
            (origin) and bounded *)))

let prop_solution_feasible =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"solutions satisfy all constraints" ~count:100 arb_2d_lp
       (fun (constraints, (cx, cy)) ->
         let p = Lp.make () in
         let x = Lp.fresh_var p and y = Lp.fresh_var p in
         List.iter
           (fun (a, b, c) -> Lp.add_le p Lp.Expr.(add (term a x) (term b y)) c)
           constraints;
         Lp.set_objective p Lp.Maximize Lp.Expr.(add (term cx x) (term cy y));
         match Lp.solve p with Lp.Optimal s -> Lp.check_solution p s | _ -> false))

(* Weak duality spot-check on random primal-dual pairs:
   max c.x, Ax<=b, x>=0  vs  min b.y, Aᵀy>=c, y>=0 — optimal values equal. *)
let prop_strong_duality =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"strong duality (2d)" ~count:60 arb_2d_lp
       (fun (constraints, (cx, cy)) ->
         let primal = Lp.make () in
         let x = Lp.fresh_var primal and y = Lp.fresh_var primal in
         List.iter
           (fun (a, b, c) -> Lp.add_le primal Lp.Expr.(add (term a x) (term b y)) c)
           constraints;
         Lp.set_objective primal Lp.Maximize Lp.Expr.(add (term cx x) (term cy y));
         let dual = Lp.make () in
         let ys = List.map (fun _ -> Lp.fresh_var dual) constraints in
         let col f rhs =
           Lp.add_ge dual
             (Lp.Expr.sum (List.map2 (fun v (a, b, _) -> Lp.Expr.term (f (a, b)) v) ys constraints))
             rhs
         in
         col fst cx;
         col snd cy;
         Lp.set_objective dual Lp.Minimize
           (Lp.Expr.sum (List.map2 (fun v (_, _, c) -> Lp.Expr.term c v) ys constraints));
         match (Lp.solve primal, Lp.solve dual) with
         | Lp.Optimal sp, Lp.Optimal sd -> Rat.equal sp.objective sd.objective
         | _ -> false))

(* --------------------------------------------------------------- *)
(* Facade-level duals (shadow prices)                               *)
(* --------------------------------------------------------------- *)

let test_facade_duals_signs () =
  (* min x + y s.t. x + 2y >= 4 (dual >= 0), x <= 10 (dual <= 0, here
     slack so 0), 3x + y >= 6 (dual >= 0). *)
  let p = Lp.make () in
  let x = Lp.fresh_var p and y = Lp.fresh_var p in
  Lp.add_ge p Lp.Expr.(add (var x) (term (q 2 1) y)) (q 4 1);
  Lp.add_le p (Lp.Expr.var x) (q 10 1);
  Lp.add_ge p Lp.Expr.(add (term (q 3 1) x) (var y)) (q 6 1);
  Lp.set_objective p Lp.Minimize Lp.Expr.(add (var x) (var y));
  let r = Lp.Solver.solve (Lp.Solver.create ()) p in
  match (r.Lp.Solver.outcome, r.Lp.Solver.duals) with
  | Lp.Optimal s, Some y_duals ->
    Alcotest.check rat "objective" (q 14 5) s.objective;
    Alcotest.(check int) "three duals" 3 (Array.length y_duals);
    Alcotest.(check bool) "Ge dual nonneg" true (Rat.sign y_duals.(0) >= 0);
    Alcotest.(check bool) "slack Le dual nonpos" true (Rat.sign y_duals.(1) <= 0);
    Alcotest.(check bool) "Ge dual nonneg" true (Rat.sign y_duals.(2) >= 0);
    (* strong duality at the facade: y·rhs = objective here (no
       constants, zero lower bounds) *)
    let yb =
      Rat.sum [ Rat.mul y_duals.(0) (q 4 1); Rat.mul y_duals.(1) (q 10 1); Rat.mul y_duals.(2) (q 6 1) ]
    in
    Alcotest.check rat "y·b = objective" s.objective yb
  | _ -> Alcotest.fail "optimal with duals expected"

let test_facade_duals_sensitivity () =
  (* Shadow-price property, exactly: perturb one rhs by a small δ and
     the optimum moves by dual·δ (the optimal basis is unchanged for
     small δ). *)
  let build rhs1 =
    let p = Lp.make () in
    let x = Lp.fresh_var p and y = Lp.fresh_var p in
    Lp.add_ge p Lp.Expr.(add (var x) (term (q 2 1) y)) rhs1;
    Lp.add_ge p Lp.Expr.(add (term (q 3 1) x) (var y)) (q 6 1);
    Lp.set_objective p Lp.Minimize Lp.Expr.(add (var x) (var y));
    p
  in
  let r = Lp.Solver.solve (Lp.Solver.create ()) (build (q 4 1)) in
  match (r.Lp.Solver.outcome, r.Lp.Solver.duals) with
  | Lp.Optimal s, Some duals -> (
    let delta = q 1 100 in
    match Lp.solve (build (Rat.add (q 4 1) delta)) with
    | Lp.Optimal s' ->
      Alcotest.check rat "Δobj = dual·δ"
        (Rat.mul duals.(0) delta)
        (Rat.sub s'.objective s.objective)
    | _ -> Alcotest.fail "perturbed LP optimal")
  | _ -> Alcotest.fail "optimal with duals expected"

let test_facade_duals_maximize () =
  (* Maximize flips dual signs: for max 3x+5y with Le rows, duals are
     >= 0 (the classic resource shadow prices). *)
  let p = Lp.make () in
  let x = Lp.fresh_var p and y = Lp.fresh_var p in
  Lp.add_le p (Lp.Expr.var x) (q 4 1);
  Lp.add_le p (Lp.Expr.term (q 2 1) y) (q 12 1);
  Lp.add_le p Lp.Expr.(add (term (q 3 1) x) (term (q 2 1) y)) (q 18 1);
  Lp.set_objective p Lp.Maximize Lp.Expr.(add (term (q 3 1) x) (term (q 5 1) y));
  let r = Lp.Solver.solve (Lp.Solver.create ()) p in
  match (r.Lp.Solver.outcome, r.Lp.Solver.duals) with
  | Lp.Optimal s, Some duals ->
    Array.iter
      (fun d -> Alcotest.(check bool) "Le dual nonneg when maximizing" true (Rat.sign d >= 0))
      duals;
    let yb =
      Rat.sum
        [ Rat.mul duals.(0) (q 4 1); Rat.mul duals.(1) (q 12 1); Rat.mul duals.(2) (q 18 1) ]
    in
    Alcotest.check rat "y·b = objective" s.objective yb
  | _ -> Alcotest.fail "optimal with duals expected"

(* --------------------------------------------------------------- *)
(* Float mirror                                                     *)
(* --------------------------------------------------------------- *)

let test_float_mirror_agrees () =
  let p = Lp.make () in
  let x = Lp.fresh_var p and y = Lp.fresh_var p in
  Lp.add_le p Lp.Expr.(add (var x) (var y)) (q 10 1);
  Lp.add_le p Lp.Expr.(add (term (q 2 1) x) (var y)) (q 15 1);
  Lp.set_objective p Lp.Maximize Lp.Expr.(add (term (q 3 1) x) (term (q 2 1) y));
  match (Lp.solve p, Lp_oracle.solve_float p) with
  | Lp.Optimal s, Lp_oracle.Foptimal f ->
    Alcotest.(check (float 1e-9))
      "objectives" (Rat.to_float s.objective) f.Lp_oracle.fobjective
  | _ -> Alcotest.fail "both optimal"

let test_float_mirror_infeasible () =
  let p = Lp.make () in
  let x = Lp.fresh_var p in
  Lp.add_ge p (Lp.Expr.var x) (q 3 1);
  Lp.add_le p (Lp.Expr.var x) (q 1 1);
  Lp.set_objective p Lp.Minimize (Lp.Expr.var x);
  match Lp_oracle.solve_float p with
  | Lp_oracle.Finfeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_float_mirror_unbounded () =
  let p = Lp.make () in
  let x = Lp.fresh_var p in
  Lp.set_objective p Lp.Maximize (Lp.Expr.var x);
  match Lp_oracle.solve_float p with
  | Lp_oracle.Funbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let prop_float_tracks_exact =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"float objective tracks exact (2d)" ~count:60 arb_2d_lp
       (fun (constraints, (cx, cy)) ->
         let build () =
           let p = Lp.make () in
           let x = Lp.fresh_var p and y = Lp.fresh_var p in
           List.iter
             (fun (a, b, c) -> Lp.add_le p Lp.Expr.(add (term a x) (term b y)) c)
             constraints;
           Lp.set_objective p Lp.Maximize Lp.Expr.(add (term cx x) (term cy y));
           p
         in
         match (Lp.solve (build ()), Lp_oracle.solve_float (build ())) with
         | Lp.Optimal s, Lp_oracle.Foptimal f ->
           Float.abs (Rat.to_float s.objective -. f.Lp_oracle.fobjective) < 1e-6
         | _ -> false))

(* --------------------------------------------------------------- *)
(* Revised engine vs the dense tableau oracle                        *)
(* --------------------------------------------------------------- *)

(* Random banded LPs: minimize a nonnegative objective over rows each
   touching a window of ≤3 consecutive variables, with a mix of
   Le/Ge/Eq relations. Never unbounded (costs >= 0, vars >= 0);
   infeasibility is possible and must be classified identically. *)
let arb_banded_lp =
  let gen st =
    let nv = 3 + QCheck.Gen.int_bound 3 st in
    let nrows = 2 + QCheck.Gen.int_bound 4 st in
    let rows =
      List.init nrows (fun i ->
          let lo = i mod nv in
          let width = 1 + QCheck.Gen.int_bound 2 st in
          let vars = List.filter (fun v -> v < nv) (List.init width (fun k -> lo + k)) in
          let coefs = List.map (fun v -> (v, Rat.of_ints (1 + QCheck.Gen.int_bound 8 st) 1)) vars in
          let rel = match QCheck.Gen.int_bound 3 st with 0 | 1 -> `Le | 2 -> `Ge | _ -> `Eq in
          let rhs =
            match rel with
            | `Le -> Rat.of_ints (5 + QCheck.Gen.int_bound 20 st) 1
            | `Ge | `Eq -> Rat.of_ints (QCheck.Gen.int_bound 4 st) 1
          in
          (coefs, rel, rhs))
    in
    let obj = List.init nv (fun v -> (v, Rat.of_ints (QCheck.Gen.int_bound 9 st) 1)) in
    (nv, rows, obj)
  in
  QCheck.make
    ~print:(fun (nv, rows, _) -> Printf.sprintf "banded LP: %d vars, %d rows" nv (List.length rows))
    gen

let build_banded (nv, rows, obj) =
  let p = Lp.make () in
  let xs = Array.init nv (fun _ -> Lp.fresh_var p) in
  List.iter
    (fun (coefs, rel, rhs) ->
      let e = Lp.Expr.sum (List.map (fun (v, c) -> Lp.Expr.term c xs.(v)) coefs) in
      match rel with
      | `Le -> Lp.add_le p e rhs
      | `Ge -> Lp.add_ge p e rhs
      | `Eq -> Lp.add_eq p e rhs)
    rows;
  Lp.set_objective p Lp.Minimize
    (Lp.Expr.sum (List.map (fun (v, c) -> Lp.Expr.term c xs.(v)) obj));
  p

(* The revised engine replicates the oracle decision-for-decision on
   cold solves, so EVERYTHING must agree exactly: classification,
   objective, the solution vertex, and the duals. *)
let prop_revised_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"revised simplex ≡ tableau oracle (banded)" ~count:200
       arb_banded_lp (fun spec ->
         let r_rev = Lp.Solver.solve (Lp.Solver.create ()) (build_banded spec) in
         let tab_outcome, tab_duals = Lp_oracle.solve (build_banded spec) in
         match (r_rev.Lp.Solver.outcome, tab_outcome) with
         | Lp.Optimal a, Lp.Optimal b ->
           Rat.equal a.Lp.objective b.Lp.objective
           && Array.for_all2 Rat.equal a.Lp.values b.Lp.values
           && (match (r_rev.Lp.Solver.duals, tab_duals) with
              | Some da, Some db -> Array.for_all2 Rat.equal da db
              | _ -> false)
           && Lp.check_solution (build_banded spec) a
         | Lp.Failed ea, Lp.Failed eb -> ea = eb
         | _ -> false))

(* Warm starts may land on a different optimal vertex but must report
   the exact optimal value and a genuinely feasible solution. *)
let prop_warm_start_exact_value =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"warm start: exact value, feasible vertex" ~count:100
       arb_banded_lp (fun ((nv, rows, obj) as spec) ->
         let session = Lp.Solver.create () in
         let first = Lp.Solver.solve session (build_banded spec) in
         (* Same shape, perturbed data: scale every Le rhs up by 1/7 —
            relaxing Le rows keeps any feasible point feasible. *)
         let perturbed =
           ( nv,
             List.map
               (fun (coefs, rel, rhs) ->
                 match rel with
                 | `Le -> (coefs, rel, Rat.mul rhs (Rat.of_ints 8 7))
                 | _ -> (coefs, rel, rhs))
               rows,
             obj )
         in
         let warm = Lp.Solver.solve session (build_banded perturbed) in
         let cold = Lp.solve (build_banded perturbed) in
         match (warm.Lp.Solver.outcome, cold) with
         | Lp.Optimal w, Lp.Optimal c ->
           Rat.equal w.Lp.objective c.Lp.objective
           && Lp.check_solution (build_banded perturbed) w
         | Lp.Failed ea, Lp.Failed eb -> ea = eb
         | _ -> (
           (* Only reachable if [first] failed too (shape never cached):
              then warm ran cold and the mismatch is genuine. *)
           match first.Lp.Solver.outcome with Lp.Failed _ -> false | _ -> false)))

let test_warm_hit_telemetry () =
  (* Two same-shaped solves through one session: the second must be a
     warm hit and skip phase 1 entirely. *)
  let build rhs =
    let p = Lp.make () in
    let x = Lp.fresh_var p and y = Lp.fresh_var p in
    Lp.add_ge p Lp.Expr.(add (var x) (term (q 2 1) y)) rhs;
    Lp.add_ge p Lp.Expr.(add (term (q 3 1) x) (var y)) (q 6 1);
    Lp.set_objective p Lp.Minimize Lp.Expr.(add (var x) (var y));
    p
  in
  let session = Lp.Solver.create () in
  let r1 = Lp.Solver.solve session (build (q 4 1)) in
  Alcotest.(check bool) "first solve cold" true
    (r1.Lp.Solver.stats.Lp.Solver.warm = Lp.Solver.Cold);
  let r2 = Lp.Solver.solve session (build (q 5 1)) in
  (match (r2.Lp.Solver.outcome, Lp.solve (build (q 5 1))) with
  | Lp.Optimal w, Lp.Optimal c -> Alcotest.check rat "warm value exact" c.objective w.objective
  | _ -> Alcotest.fail "both optimal expected");
  Alcotest.(check bool) "second solve warm hit" true
    (r2.Lp.Solver.stats.Lp.Solver.warm = Lp.Solver.Warm_hit)

let test_engine_stats_pivots () =
  (* The per-solve pivot stat matches the Obs counter delta. *)
  let p () =
    let p = Lp.make () in
    let x = Lp.fresh_var p and y = Lp.fresh_var p in
    Lp.add_le p Lp.Expr.(add (var x) (var y)) (q 10 1);
    Lp.set_objective p Lp.Maximize Lp.Expr.(add (term (q 3 1) x) (var y));
    p
  in
  Obs.with_recorder (Obs.create ()) @@ fun () ->
  let before = Obs.counter_value "simplex.pivots" in
  let r = Lp.Solver.solve (Lp.Solver.create ()) (p ()) in
  let delta = Obs.counter_value "simplex.pivots" - before in
  Alcotest.(check int) "stats.pivots = counter delta" delta r.Lp.Solver.stats.Lp.Solver.pivots

let () =
  Alcotest.run "lp"
    [
      ( "textbook",
        [
          Alcotest.test_case "basic max" `Quick test_basic_max;
          Alcotest.test_case "basic min" `Quick test_basic_min;
          Alcotest.test_case "equality constraints" `Quick test_equality_constraints;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "infeasible equalities" `Quick test_infeasible_eq;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "unbounded direction" `Quick test_unbounded_direction;
          Alcotest.test_case "free variables" `Quick test_free_variables;
          Alcotest.test_case "lower bounds" `Quick test_lower_bounds;
          Alcotest.test_case "objective constant" `Quick test_constant_in_objective;
          Alcotest.test_case "Beale degeneracy (Bland)" `Quick test_degenerate_beale;
          Alcotest.test_case "duplicate terms" `Quick test_duplicate_terms_normalized;
          Alcotest.test_case "redundant rows" `Quick test_redundant_rows;
          Alcotest.test_case "zero objective" `Quick test_zero_objective;
          Alcotest.test_case "expression evaluation" `Quick test_expr_eval;
        ] );
      ( "randomized",
        [ prop_2d_matches_brute_force; prop_solution_feasible; prop_strong_duality ] );
      ( "revised-vs-oracle",
        [
          prop_revised_matches_oracle;
          prop_warm_start_exact_value;
          Alcotest.test_case "warm-hit telemetry" `Quick test_warm_hit_telemetry;
          Alcotest.test_case "stats pivots" `Quick test_engine_stats_pivots;
        ] );
      ( "facade-duals",
        [
          Alcotest.test_case "signs and strong duality" `Quick test_facade_duals_signs;
          Alcotest.test_case "shadow-price sensitivity" `Quick test_facade_duals_sensitivity;
          Alcotest.test_case "maximize flips signs" `Quick test_facade_duals_maximize;
        ] );
      ( "float-mirror",
        [
          Alcotest.test_case "agrees on a textbook LP" `Quick test_float_mirror_agrees;
          Alcotest.test_case "infeasible" `Quick test_float_mirror_infeasible;
          Alcotest.test_case "unbounded" `Quick test_float_mirror_unbounded;
          prop_float_tracks_exact;
        ] );
    ]
