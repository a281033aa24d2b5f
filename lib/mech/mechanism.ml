(** Oblivious privacy mechanisms for count queries.

    A mechanism over results [{0..n}] is an [(n+1) × (n+1)]
    row-stochastic matrix of exact rationals: entry [(i, r)] is the
    probability of releasing [r] when the true count is [i] (§2.2 of
    the paper). The matrix view makes post-processing a matrix product
    and differential privacy a family of linear inequalities. *)

module Qm = Linalg.Matrix.Q

type t = { n : int; matrix : Rat.t array array }

exception Not_stochastic of string

let validate matrix =
  let rows = Array.length matrix in
  if rows = 0 then raise (Not_stochastic "empty matrix");
  Array.iteri
    (fun i row ->
      if Array.length row <> rows then raise (Not_stochastic "matrix not square");
      let sum = Array.fold_left Rat.add Rat.zero row in
      if not (Rat.is_one sum) then
        raise (Not_stochastic (Printf.sprintf "row %d sums to %s" i (Rat.to_string sum)));
      Array.iteri
        (fun r p ->
          if Rat.sign p < 0 then
            raise (Not_stochastic (Printf.sprintf "negative mass at (%d,%d)" i r)))
        row)
    matrix

let unsafe_of_audited matrix =
  { n = Array.length matrix - 1; matrix = Array.map Array.copy matrix }

let make matrix =
  validate matrix;
  unsafe_of_audited matrix

let of_rows rows = make (Array.of_list (List.map Array.of_list rows))

let n t = t.n
let size t = t.n + 1
let prob t ~input ~output = t.matrix.(input).(output)
let row t i = Array.copy t.matrix.(i)
let matrix t = Array.map Array.copy t.matrix
let column t r = Array.init (size t) (fun i -> t.matrix.(i).(r))

let equal a b = a.n = b.n && Qm.equal a.matrix b.matrix

(** Identity (non-private) mechanism: releases the true count. *)
let identity n =
  { n; matrix = Array.init (n + 1) (fun i -> Array.init (n + 1) (fun j -> if i = j then Rat.one else Rat.zero)) }

(** Post-process by a row-stochastic matrix [t]: the induced mechanism
    [x = y · t] of Definition 3. *)
let compose y (t : Rat.t array array) =
  validate t;
  make (Qm.mul y.matrix t)

(* ------------------------------------------------------------------ *)
(* Differential privacy                                               *)
(* ------------------------------------------------------------------ *)

(** All violated adjacent-input constraints of Definition 2 at privacy
    level [alpha]: pairs [((i, r), ratio_violated)]. *)
let dp_violations ~alpha t =
  if Rat.sign alpha < 0 || Rat.compare alpha Rat.one > 0 then
    invalid_arg "Mechanism.dp_violations: alpha must lie in [0,1]";
  let out = ref [] in
  for i = 0 to t.n - 1 do
    for r = 0 to t.n do
      let a = t.matrix.(i).(r) and b = t.matrix.(i + 1).(r) in
      (* Need alpha * a <= b and alpha * b <= a. *)
      if Rat.compare (Rat.mul alpha a) b > 0 then out := ((i, r), `Upper) :: !out;
      if Rat.compare (Rat.mul alpha b) a > 0 then out := ((i, r), `Lower) :: !out
    done
  done;
  List.rev !out

let is_dp ~alpha t = dp_violations ~alpha t = []

(** The strongest (largest) [alpha] for which the mechanism is
    [alpha]-differentially private: the minimum over all adjacent pairs
    of [min(x_i,r / x_i+1,r , x_i+1,r / x_i,r)]. Returns [Rat.zero]
    when some column has a zero next to a non-zero. *)
let privacy_level t =
  let best = ref Rat.one in
  (try
     for i = 0 to t.n - 1 do
       for r = 0 to t.n do
         let a = t.matrix.(i).(r) and b = t.matrix.(i + 1).(r) in
         match (Rat.is_zero a, Rat.is_zero b) with
         | true, true -> ()
         | true, false | false, true ->
           best := Rat.zero;
           raise Exit
         | false, false ->
           let ratio = if Rat.compare a b <= 0 then Rat.div a b else Rat.div b a in
           if Rat.compare ratio !best < 0 then best := ratio
       done
     done
   with Exit -> ());
  !best

(* ------------------------------------------------------------------ *)
(* Sampling                                                           *)
(* ------------------------------------------------------------------ *)

(** One exact draw from row [input] through a fresh {!Sampler} table,
    so it is the first draw of any batch sampled from that row. *)
let sample t ~input rng =
  if input < 0 || input > t.n then invalid_arg "Mechanism.sample: input out of range";
  Sampler.draw (Sampler.of_row t.matrix.(input)) rng

(* ------------------------------------------------------------------ *)
(* Expected / worst-case loss                                         *)
(* ------------------------------------------------------------------ *)

(** Expected loss at true input [i] under loss function [l]. *)
let expected_loss t ~loss i =
  let acc = ref Rat.zero in
  for r = 0 to t.n do
    acc := Rat.add !acc (Rat.mul (loss i r) t.matrix.(i).(r))
  done;
  !acc

(** Minimax (worst-case over side information) loss — Equation (1). *)
let minimax_loss t ~loss ~side_info =
  match side_info with
  | [] -> invalid_arg "Mechanism.minimax_loss: empty side information"
  | i0 :: rest ->
    List.fold_left
      (fun acc i -> Rat.max acc (expected_loss t ~loss i))
      (expected_loss t ~loss i0)
      rest

let pp fmt t = Qm.pp fmt t.matrix
