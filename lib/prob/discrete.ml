(** Discrete probability distributions over integer supports.

    A distribution is a normalized probability mass function stored as
    [(value, mass)] pairs with float masses, for statistics: χ² targets,
    moments and distances. Its inverse-CDF sampler draws floats; every
    mechanism draw goes through the exact [Mech.Sampler] instead. *)

type t = {
  support : int array;  (** strictly increasing *)
  pmf : float array;  (** same length, sums to 1 (±1e-9) *)
  cdf : float array;  (** running sums, last entry is 1 *)
}

let normalization_tolerance = 1e-9

let of_assoc pairs =
  List.iter
    (fun (_, p) -> if p < 0.0 then invalid_arg "Discrete.of_assoc: negative mass")
    pairs;
  let pairs = List.filter (fun (_, p) -> p > 0.0) pairs in
  if pairs = [] then invalid_arg "Discrete.of_assoc: empty distribution";
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (v, p) ->
      Hashtbl.replace tbl v (p +. Option.value ~default:0.0 (Hashtbl.find_opt tbl v)))
    pairs;
  (* analysis: order-insensitive — the fold's result is immediately
     sorted by support value. *)
  let items = Hashtbl.fold (fun v p acc -> (v, p) :: acc) tbl [] in
  let items = List.sort (fun (a, _) (b, _) -> compare a b) items in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 items in
  if total <= 0.0 then invalid_arg "Discrete.of_assoc: zero total mass";
  let support = Array.of_list (List.map fst items) in
  let pmf = Array.of_list (List.map (fun (_, p) -> p /. total) items) in
  let cdf = Array.make (Array.length pmf) 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i p ->
      acc := !acc +. p;
      cdf.(i) <- !acc)
    pmf;
  cdf.(Array.length cdf - 1) <- 1.0;
  { support; pmf; cdf }

(** Build from a row of exact rationals interpreted as masses on
    [0 .. length-1]. *)
let of_rat_row (row : Rat.t array) =
  of_assoc (Array.to_list (Array.mapi (fun i p -> (i, Rat.to_float p)) row))

let uniform lo hi =
  if hi < lo then invalid_arg "Discrete.uniform";
  of_assoc (List.init (hi - lo + 1) (fun i -> (lo + i, 1.0)))

let point v = of_assoc [ (v, 1.0) ]

let support t = Array.copy t.support
let size t = Array.length t.support

let mass t v =
  let rec search lo hi =
    if lo > hi then 0.0
    else
      let mid = (lo + hi) / 2 in
      if t.support.(mid) = v then t.pmf.(mid)
      else if t.support.(mid) < v then search (mid + 1) hi
      else search lo (mid - 1)
  in
  search 0 (Array.length t.support - 1)

let mean t =
  let acc = ref 0.0 in
  Array.iteri (fun i v -> acc := !acc +. (float_of_int v *. t.pmf.(i))) t.support;
  !acc

let variance t =
  let m = mean t in
  let acc = ref 0.0 in
  Array.iteri
    (fun i v ->
      let d = float_of_int v -. m in
      acc := !acc +. (d *. d *. t.pmf.(i)))
    t.support;
  !acc

let expectation t f =
  let acc = ref 0.0 in
  Array.iteri (fun i v -> acc := !acc +. (f v *. t.pmf.(i))) t.support;
  !acc

let is_normalized t =
  Float.abs (Array.fold_left ( +. ) 0.0 t.pmf -. 1.0) <= normalization_tolerance

(** Inverse-CDF sampling. *)
let sample t rng =
  let u = Rng.float rng in
  (* First index whose cdf strictly exceeds u. *)
  let n = Array.length t.cdf in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) > u then search lo mid else search (mid + 1) hi
  in
  t.support.(search 0 (n - 1))

(** Total-variation distance between two distributions. *)
let total_variation a b =
  let values = ref [] in
  Array.iter (fun v -> values := v :: !values) a.support;
  Array.iter (fun v -> values := v :: !values) b.support;
  let values = List.sort_uniq compare !values in
  0.5 *. List.fold_left (fun acc v -> acc +. Float.abs (mass a v -. mass b v)) 0.0 values

(** Kullback–Leibler divergence D(a || b); [infinity] when the support
    of [a] is not contained in that of [b]. *)
let kl_divergence a b =
  let acc = ref 0.0 in
  (try
     Array.iteri
       (fun i v ->
         let pa = a.pmf.(i) in
         let pb = mass b v in
         if pb <= 0.0 then begin
           acc := infinity;
           raise Exit
         end;
         acc := !acc +. (pa *. log (pa /. pb)))
       a.support
   with Exit -> ());
  !acc

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri (fun i v -> Format.fprintf fmt "%d: %.6f@," v t.pmf.(i)) t.support;
  Format.fprintf fmt "@]"
