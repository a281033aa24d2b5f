(** Theorem 2: which mechanisms can be derived from the geometric
    mechanism?

    A differentially private mechanism [M] is derivable from [G(n,α)]
    (i.e. [M = G·T] for a row-stochastic [T]) iff every three
    consecutive entries [x1, x2, x3] in every column satisfy

    {v (1 + α²)·x2 − α·(x1 + x3) >= 0 v}

    together with the boundary conditions from Lemma 2
    ([x_0 >= α·x_1] at the top of a column, [x_n >= α·x_{n−1}] at the
    bottom — these are exactly the DP constraints, restated). This
    module provides both the syntactic test and the constructive
    factorization [T = G⁻¹·M], with each path validating the other. *)

module Qm = Linalg.Matrix.Q

type violation = {
  column : int;
  row : int;  (** index of the middle entry [x2] *)
  slack : Rat.t;  (** [(1+α²)·x2 − α·(x1+x3)], negative here *)
}

(** All violations of the three-consecutive-entries condition. *)
let condition_violations ~alpha m =
  let n = Mechanism.n m in
  let out = ref [] in
  for c = 0 to n do
    for i = 1 to n - 1 do
      let x1 = Mechanism.prob m ~input:(i - 1) ~output:c in
      let x2 = Mechanism.prob m ~input:i ~output:c in
      let x3 = Mechanism.prob m ~input:(i + 1) ~output:c in
      let slack =
        Rat.sub
          (Rat.mul (Rat.add Rat.one (Rat.mul alpha alpha)) x2)
          (Rat.mul alpha (Rat.add x1 x3))
      in
      if Rat.sign slack < 0 then out := { column = c; row = i; slack } :: !out
    done
  done;
  List.rev !out

(** Syntactic side of Theorem 2 (for differentially private [m]). *)
let satisfies_condition ~alpha m = condition_violations ~alpha m = []

(** Constructive side: the unique generalized-stochastic [T] with
    [M = G(n,α)·T]. [G] is non-singular (Lemma 1), so [T = G⁻¹·M]
    always exists, and [G⁻¹] is tridiagonal in closed form
    ({!Geometric.apply_inverse}); derivability holds iff [T] is
    entrywise non-negative. *)
let factor ~alpha m =
  let n = Mechanism.n m in
  Obs.span ~attrs:[ ("n", Obs.Int n) ] "derivability.factor" @@ fun () ->
  Resilience.Fault.trip "mech.factor";
  Geometric.apply_inverse ~n ~alpha (Mechanism.matrix m)

type verdict =
  | Derivable of Rat.t array array  (** the stochastic post-processing [T] *)
  | Not_derivable of violation list

(** Full check: factor and classify. The returned [T] is certified
    row-stochastic; the violation list is the Theorem-2 witness. *)
let derive ~alpha m =
  let t = factor ~alpha m in
  if Qm.is_nonnegative t then begin
    assert (Qm.is_generalized_stochastic t);
    Derivable t
  end
  else begin
    let violations = condition_violations ~alpha m in
    Obs.incr ~by:(List.length violations) "derivability.violations";
    Not_derivable violations
  end

let is_derivable ~alpha m = match derive ~alpha m with Derivable _ -> true | Not_derivable _ -> false

(** Appendix B's counterexample: a ½-DP mechanism that is not derivable
    from [G(3,½)]. *)
let appendix_b_mechanism () =
  let q = Rat.of_ints in
  Mechanism.of_rows
    [
      [ q 1 9; q 2 9; q 4 9; q 2 9 ];
      [ q 2 9; q 1 9; q 2 9; q 4 9 ];
      [ q 4 9; q 2 9; q 1 9; q 2 9 ];
      [ q 13 18; q 1 9; q 1 18; q 1 9 ];
    ]
