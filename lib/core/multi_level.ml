(** Algorithm 1: releasing the query result at multiple privacy levels
    in a collusion-resistant way (§2.6, §4.1).

    Privacy levels [α₁ < α₂ < … < α_k] (larger α = more private). The
    cascade first applies the [α₁]-geometric mechanism, then each stage
    [i → i+1] re-randomizes through the stochastic matrix
    [T_{αᵢ,αᵢ₊₁} = G(n,αᵢ)⁻¹·G(n,αᵢ₊₁)] of Lemma 3, so the marginal of
    stage [i] is exactly the [αᵢ]-geometric mechanism while the joint
    release is a Markov chain — colluders learn nothing beyond the
    least-private result (Lemma 4). *)

module Qm = Linalg.Matrix.Q

exception
  Lemma3_violated of {
    alpha : Rat.t;
    beta : Rat.t;
    violations : Mech.Derivability.violation list;
  }

(** Lemma 3: the stochastic matrix [T] with [G(n,β) = G(n,α)·T], for
    [α ≤ β]. Lemma 3 proves the factor is always stochastic; should
    arithmetic ever disagree, the exception carries the exact
    Theorem-2 witnesses instead of swallowing them in a string. *)
let transition ~n ~alpha ~beta =
  Mech.Geometric.check_alpha alpha;
  Mech.Geometric.check_alpha beta;
  if Rat.compare alpha beta > 0 then
    invalid_arg "Multi_level.transition: need alpha <= beta (privacy can only be added)";
  Obs.span
    ~attrs:[ ("n", Obs.Int n); ("alpha", Obs.Rat alpha); ("beta", Obs.Rat beta) ]
    "multilevel.transition"
  @@ fun () ->
  let g_beta = Mech.Geometric.matrix ~n ~alpha:beta in
  match Mech.Derivability.derive ~alpha g_beta with
  | Mech.Derivability.Derivable t -> t
  | Mech.Derivability.Not_derivable violations ->
    raise (Lemma3_violated { alpha; beta; violations })

type plan = {
  n : int;
  levels : Rat.t array;  (** strictly increasing α's *)
  first : Mech.Mechanism.t;  (** G(n, α₁) *)
  stages : Rat.t array array array;  (** stages.(i) maps level i to i+1 *)
  tables : Mech.Sampler.t array array;
      (** row samplers: tables.(0) of [first], tables.(i) of stages.(i-1) *)
}

let make_plan ~n ~levels =
  (match levels with
   | [] -> invalid_arg "Multi_level.make_plan: no levels"
   | _ -> ());
  let arr = Array.of_list levels in
  Array.iter Mech.Geometric.check_alpha arr;
  for i = 0 to Array.length arr - 2 do
    if Rat.compare arr.(i) arr.(i + 1) >= 0 then
      invalid_arg "Multi_level.make_plan: levels must be strictly increasing"
  done;
  Obs.span
    ~attrs:[ ("n", Obs.Int n); ("levels", Obs.Int (Array.length arr)) ]
    "multilevel.plan"
  @@ fun () ->
  let first = Mech.Geometric.matrix ~n ~alpha:arr.(0) in
  let stages =
    Array.init
      (Array.length arr - 1)
      (fun i ->
        Obs.span ~attrs:[ ("stage", Obs.Int i) ] "multilevel.stage" @@ fun () ->
        Resilience.Fault.trip "multilevel.stage";
        transition ~n ~alpha:arr.(i) ~beta:arr.(i + 1))
  in
  let rows m = Array.map Mech.Sampler.of_row m in
  let tables =
    Array.append [| rows (Mech.Mechanism.matrix first) |] (Array.map rows stages)
  in
  { n; levels = arr; first; stages; tables }

(** Run Algorithm 1: produce one correlated result per level. *)
let release plan ~true_result rng =
  if true_result < 0 || true_result > plan.n then
    invalid_arg "Multi_level.release: result out of range";
  Obs.span ~attrs:[ ("levels", Obs.Int (Array.length plan.levels)) ] "multilevel.release"
  @@ fun () ->
  let out = Array.make (Array.length plan.tables) 0 in
  let prev = ref true_result in
  Array.iteri
    (fun i rows ->
      prev := Mech.Sampler.draw rows.(!prev) rng;
      out.(i) <- !prev)
    plan.tables;
  out

(** Exact marginal of stage [i] (0-based): the matrix product
    [G(n,α₁)·T₁·…·Tᵢ], which Lemma 3 makes equal to [G(n,αᵢ₊₁)].
    Exposed so tests can assert the equality. *)
let stage_marginal plan i =
  if i < 0 || i >= Array.length plan.levels then invalid_arg "Multi_level.stage_marginal";
  let acc = ref (Mech.Mechanism.matrix plan.first) in
  for j = 0 to i - 1 do
    acc := Qm.mul !acc plan.stages.(j)
  done;
  Mech.Mechanism.make !acc

(** Lemma 4, computational form. Colluders [C] observe the tuple
    [(r_c)_{c∈C}]; because the cascade is a Markov chain whose
    transitions do not involve the database, the posterior over the
    true result given all of [R(C)] equals the posterior given the
    least-private element alone. [posterior] computes, for a uniform
    prior over inputs, the exact posterior given a joint observation —
    tests compare it against the single-observation posterior. *)
let posterior plan ~observed =
  Obs.span ~attrs:[ ("observations", Obs.Int (List.length observed)) ] "multilevel.posterior"
  @@ fun () ->
  (* observed : (level_index, value) list, sorted by level. *)
  let k = Array.length plan.levels in
  List.iter
    (fun (i, v) ->
      if i < 0 || i >= k || v < 0 || v > plan.n then invalid_arg "Multi_level.posterior")
    observed;
  let observed = List.sort compare observed in
  (* Joint likelihood of the observation chain given input i0:
     G(i0, r_{c1}) · Π T-path(r_{c_j} → r_{c_{j+1}}). The path between
     two observed levels is the product of the intermediate stage
     matrices. *)
  let path_matrix lo hi =
    (* product of stages lo..hi-1, identity when lo = hi *)
    let acc = ref (Qm.identity (plan.n + 1)) in
    for j = lo to hi - 1 do
      acc := Qm.mul !acc plan.stages.(j)
    done;
    !acc
  in
  match observed with
  | [] -> invalid_arg "Multi_level.posterior: nothing observed"
  | (first_level, first_value) :: rest ->
    let first_marginal = stage_marginal plan first_level in
    let likelihood = Array.make (plan.n + 1) Rat.zero in
    for i0 = 0 to plan.n do
      (* chain contribution independent of i0 is factored out: the
         posterior over i0 only involves the first observation, but we
         compute the full joint to *verify* that fact. *)
      let l = ref (Mech.Mechanism.prob first_marginal ~input:i0 ~output:first_value) in
      let prev_level = ref first_level and prev_value = ref first_value in
      List.iter
        (fun (level, value) ->
          let m = path_matrix !prev_level level in
          l := Rat.mul !l m.(!prev_value).(value);
          prev_level := level;
          prev_value := value)
        rest;
      likelihood.(i0) <- !l
    done;
    let total = Array.fold_left Rat.add Rat.zero likelihood in
    if Rat.is_zero total then None
    else Some (Array.map (fun l -> Rat.div l total) likelihood)
