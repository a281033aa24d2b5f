(** The geometric mechanism, in both of the paper's forms.

    - Definition 1: unbounded — output [true + Z] where
      [Pr[Z = z] = (1-α)/(1+α) · α^{|z|}] over all integers [z].
    - Definition 4: range-restricted — outputs clamped to [{0..n}],
      boundary outputs absorbing the two tails. The two are equivalent
      (each derivable from the other); the matrix form below is the
      ground truth for all exact computations. *)

(** Validity check for a privacy parameter: the theory needs
    [0 < α < 1] (at [α = 0] privacy is vacuous; at [α = 1] the matrix
    is constant and singular). *)
let check_alpha alpha =
  if Rat.sign alpha <= 0 || Rat.compare alpha Rat.one >= 0 then
    invalid_arg "Geometric: alpha must satisfy 0 < alpha < 1"

(** Range-restricted geometric mechanism [G(n,α)] (Definition 4). *)
let matrix ~n ~alpha =
  check_alpha alpha;
  if n < 1 then invalid_arg "Geometric.matrix: n must be >= 1";
  Obs.span ~attrs:[ ("n", Obs.Int n); ("alpha", Obs.Rat alpha) ] "geometric.matrix" @@ fun () ->
  let one_plus = Rat.add Rat.one alpha in
  let boundary = Rat.inv one_plus in
  let interior = Rat.div (Rat.sub Rat.one alpha) one_plus in
  let entry k z =
    let scale = if z = 0 || z = n then boundary else interior in
    Rat.mul scale (Rat.pow alpha (abs (z - k)))
  in
  Mechanism.make (Array.init (n + 1) (fun k -> Array.init (n + 1) (entry k)))

(** The scaled matrix [G'(n,α)] from §3: columns 0 and n of [G]
    multiplied by [(1+α)], all others by [(1+α)/(1-α)] — i.e. entries
    are simply [α^{|i-j|}]. Used by Lemma 1/2 proofs; singular-free. *)
let scaled_matrix ~n ~alpha : Rat.t array array =
  check_alpha alpha;
  Array.init (n + 1) (fun i -> Array.init (n + 1) (fun j -> Rat.pow alpha (abs (i - j))))

(** Closed form of Lemma 1: [det G'(n,α) = (1 − α²)^n] for the
    [(n+1) × (n+1)] matrix (the paper indexes by matrix dimension; with
    dimension [m] the determinant is [(1−α²)^(m−1)]). *)
let scaled_determinant ~n ~alpha =
  check_alpha alpha;
  Rat.pow (Rat.sub Rat.one (Rat.mul alpha alpha)) n

(** [G(n,α)⁻¹·M] in closed form. [G = K·D] with [K = G'(n,α)] a
    Kac–Murdock–Szegő matrix and [D] the column scales, so [G⁻¹ = D⁻¹·K⁻¹]
    is tridiagonal: row [r] is [d_r/(1−α²)·(−α, c_r, −α)] around the
    diagonal, with [c_r = 1], [d_r = 1+α] at the two ends (one neighbour)
    and [c_r = 1+α²], [d_r = (1+α)/(1−α)] inside. *)
let apply_inverse ~n ~alpha m =
  check_alpha alpha;
  if n < 1 then invalid_arg "Geometric.apply_inverse: n must be >= 1";
  if Array.length m <> n + 1 then invalid_arg "Geometric.apply_inverse: M must have n+1 rows";
  let edge = Rat.inv (Rat.sub Rat.one alpha) in
  let inner = Rat.mul edge edge in
  let centre = Rat.add Rat.one (Rat.mul alpha alpha) in
  Array.init (n + 1) (fun r ->
      Array.mapi
        (fun j x ->
          if r = 0 then Rat.mul edge (Rat.sub x (Rat.mul alpha m.(1).(j)))
          else if r = n then Rat.mul edge (Rat.sub x (Rat.mul alpha m.(n - 1).(j)))
          else
            Rat.mul inner
              (Rat.sub (Rat.mul centre x) (Rat.mul alpha (Rat.add m.(r - 1).(j) m.(r + 1).(j)))))
        m.(r))

(** Probability mass of the unbounded two-sided geometric noise
    (Definition 1) at offset [z]. *)
let unbounded_noise_pmf ~alpha z =
  check_alpha alpha;
  Rat.mul (Rat.div (Rat.sub Rat.one alpha) (Rat.add Rat.one alpha)) (Rat.pow alpha (abs z))

(** Pmf of the unbounded mechanism's output at [z] given true value
    [center]. *)
let unbounded_pmf ~alpha ~center z = unbounded_noise_pmf ~alpha (z - center)

(** Sample the two-sided geometric noise [Z] (Definition 1), exactly.

    Decomposition: [Z = 0] with probability [(1-α)/(1+α)]; otherwise a
    fair sign and a magnitude [m ≥ 1] with [Pr[m = k] = α^{k-1}(1-α)],
    i.e. one plus the run of Bernoulli(α) successes. Every coin is a
    {!Sampler} draw over a two-entry rational row. *)
let sample_noise ~alpha rng =
  check_alpha alpha;
  let coin p = Sampler.of_row [| Rat.sub Rat.one p; p |] in
  let nonzero = coin (Rat.div (Rat.add alpha alpha) (Rat.add Rat.one alpha)) in
  if Sampler.draw nonzero rng = 0 then 0
  else begin
    let sign = if Prob.Rng.bool rng then 1 else -1 in
    let longer = coin alpha in
    let rec magnitude k = if Sampler.draw longer rng = 1 then magnitude (k + 1) else k in
    sign * magnitude 1
  end

(** Unbounded geometric mechanism: the true result plus noise. *)
let sample_unbounded ~alpha ~input rng = input + sample_noise ~alpha rng

(** Range-restricted sampling by clamping the unbounded draw — tests
    verify this induces exactly [matrix ~n ~alpha]. *)
let sample_clamped ~n ~alpha ~input rng =
  let z = sample_unbounded ~alpha ~input rng in
  if z < 0 then 0 else if z > n then n else z

(** Definition 2 holds for the geometric mechanism at its own [α]. *)
let is_self_dp ~n ~alpha = Mechanism.is_dp ~alpha (matrix ~n ~alpha)
