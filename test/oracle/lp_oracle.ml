(* The test oracle: the dense tableau simplex and the float mirrors,
   over the one standard form [Lp.standard_form] lowers a model to, and
   general Gaussian elimination in ℚ and in floats.

   Nothing here is on a production path. The revised engine in lib/lp
   must match [solve] decision for decision on cold solves, the closed
   forms of Lemma 1 and G(n,α)⁻¹ must match [Q]'s elimination exactly,
   and the numeric ablation (ABL2) measures what exactness buys against
   [solve_float] and [Fl]. *)

module Simplex = Simplex
module Float_field : Linalg.Field.S with type t = float = Float_field

module Q = Elimination.Make (Linalg.Field.Rational)
(** Exact matrices with determinant, inverse, solve and rank. *)

module Fl = Elimination.Make (Float_field)
(** Dense float matrices with elimination, for the numeric ablation. *)

let q_to_float (m : Linalg.Matrix.Q.t) : Fl.t = Array.map (Array.map Rat.to_float) m

(* The CSC constraint matrix of a standard form, made dense. *)
let dense f (a : Lp.Revised.csc) =
  let d = Array.make_matrix a.m a.n (f Rat.zero) in
  for j = 0 to a.n - 1 do
    for k = a.colp.(j) to a.colp.(j + 1) - 1 do
      d.(a.rowi.(k)).(j) <- f a.vals.(k)
    done
  done;
  d

(** A cold solve of [p] on the exact tableau: the outcome and duals an
    [Lp.Solver] session must reproduce byte for byte. *)
let solve p =
  let sf = Lp.standard_form p in
  let r, duals = Simplex.Exact.solve_standard_with_duals ~a:(dense Fun.id sf.a) ~b:sf.b ~c:sf.c () in
  let raw =
    match r with Simplex.Exact.Failed e -> Error e | Simplex.Exact.Optimal (o, x) -> Ok (o, x)
  in
  Lp.extract_outcome sf raw duals

type float_solution = { fobjective : float; fvalues : float array }
type float_outcome = Foptimal of float_solution | Finfeasible | Funbounded

(** The same standard form, solved in floating point under the
    requested pricing rule. Fast but untrustworthy on degenerate
    instances — see the ABL2 bench. *)
let solve_float ?pricing p =
  let sf = Lp.standard_form p in
  match
    Simplex.Floating.solve_standard ?pricing ~a:(dense Rat.to_float sf.a)
      ~b:(Array.map Rat.to_float sf.b) ~c:(Array.map Rat.to_float sf.c) ()
  with
  | Simplex.Floating.Failed Lp.Solver_error.Infeasible -> Finfeasible
  | Simplex.Floating.Failed Lp.Solver_error.Unbounded -> Funbounded
  | Simplex.Floating.Failed (Lp.Solver_error.Exhausted _ as e) ->
    (* No budget is passed here, so only an injected fault reaches this
       arm; the float mirror has no degradation story, so surface it. *)
    Lp.Solver_error.fail ~context:"lp_oracle.solve_float" e
  | Simplex.Floating.Optimal (raw_obj, x) ->
    let fvalues =
      Array.mapi
        (fun v col ->
          let value =
            if sf.var_neg_col.(v) >= 0 then x.(col) -. x.(sf.var_neg_col.(v)) else x.(col)
          in
          match sf.var_lower.(v) with Some l -> value +. Rat.to_float l | None -> value)
        sf.var_col
    in
    let fobjective = (if sf.flip then -.raw_obj else raw_obj) +. Rat.to_float sf.obj_shift in
    Foptimal { fobjective; fvalues }
