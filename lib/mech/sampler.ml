(* Exact row sampler; see sampler.mli. *)

module B = Bigint

(* The integers a table is built over: native words when m·d fits,
   limbs otherwise. *)
module type Z = sig
  type t

  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val compare : t -> t -> int
end

type 'z table = { d : 'z; bound : 'z; threshold : 'z array; alias : int array }
type t = Word of int table | Limbs of B.t table

exception Unfaithful of { column : int }

module Split (Z : Z) = struct
  (* Vose's split over the scaled masses s_j = m·a_j, compared against
     d: a column below d keeps s_j of its d slots and lends the rest to
     a column above d, which gives up d − s_j of its own excess. In ℚ
     every column ends at exactly d, so the leftovers keep all d slots
     and alias themselves. *)
  let split ~d scaled =
    let m = Array.length scaled in
    let s = Array.copy scaled in
    let threshold = Array.make m d and alias = Array.init m Fun.id in
    let small = Array.make m 0 and large = Array.make m 0 in
    let ns = ref 0 and nl = ref 0 in
    let push stack top j =
      stack.(!top) <- j;
      incr top
    in
    Array.iteri (fun j x -> if Z.compare x d < 0 then push small ns j else push large nl j) s;
    while !ns > 0 && !nl > 0 do
      decr ns;
      let j = small.(!ns) and l = large.(!nl - 1) in
      threshold.(j) <- s.(j);
      alias.(j) <- l;
      s.(l) <- Z.sub (Z.add s.(l) s.(j)) d;
      if Z.compare s.(l) d < 0 then begin
        decr nl;
        push small ns l
      end
    done;
    (threshold, alias)

  (* The table's implied mass of column j, times m·d, is c_j plus the
     d − c_i every column i aliasing j lends it; it must equal s_j. *)
  let check ~d ~threshold ~alias scaled =
    let m = Array.length scaled in
    let mass = Array.copy threshold in
    Array.iteri
      (fun i c ->
        if Z.compare c Z.zero < 0 || Z.compare c d > 0 || alias.(i) < 0 || alias.(i) >= m then
          raise (Unfaithful { column = i });
        mass.(alias.(i)) <- Z.add mass.(alias.(i)) (Z.sub d c))
      threshold;
    Array.iteri
      (fun j x -> if Z.compare mass.(j) x <> 0 then raise (Unfaithful { column = j }))
      scaled

  let table ~d ~bound scaled =
    let threshold, alias = split ~d scaled in
    check ~d ~threshold ~alias scaled;
    { d; bound; threshold; alias }
end

module W = Split (Int)
module L = Split (B)

(* m·d and the s_j in native words, or [None] when one of them would
   not fit, an entry is negative or the row does not sum to one: the
   split then stays within [0, m·d] and cannot overflow. *)
let word_row row =
  let exception Wide in
  let small x = if B.to_small x = B.not_small then raise Wide else B.to_small x in
  let mul a b = if a <> 0 && b > max_int / a then raise Wide else a * b in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  try
    let m = Array.length row in
    let d = Array.fold_left (fun l p -> let e = small (Rat.den p) in mul (l / gcd l e) e) 1 row in
    let bound = mul d m in
    let scaled =
      Array.map
        (fun p ->
          let a = small (Rat.num p) in
          if a < 0 then raise Wide;
          mul (mul a (d / small (Rat.den p))) m)
        row
    in
    let total = Array.fold_left (fun acc s -> if s > bound - acc then raise Wide else acc + s) 0 scaled in
    if total <> bound then raise Wide;
    Some (d, bound, scaled)
  with Wide -> None

let of_row row =
  let m = Array.length row in
  if m = 0 then invalid_arg "Sampler.of_row: empty row";
  match word_row row with
  | Some (d, bound, scaled) -> Word (W.table ~d ~bound scaled)
  | None ->
    let d = Array.fold_left (fun acc p -> B.lcm acc (Rat.den p)) B.one row in
    let scaled = Array.map (fun p -> B.mul_int (B.mul (Rat.num p) (B.div d (Rat.den p))) m) row in
    Limbs (L.table ~d ~bound:(B.mul_int d m) scaled)

(* Uniform in [0, bound) for a bound past a word: fill num_bits(bound−1)
   bits 62 at a time from the generator's top bits, reject past bound. *)
let rec uniform_limbs rng bound =
  let rec fill acc bits =
    if bits <= 0 then acc
    else
      let w = min bits 62 in
      let chunk = Int64.to_int (Int64.shift_right_logical (Prob.Rng.next_int64 rng) (64 - w)) in
      fill (B.add_int (B.shift_left acc w) chunk) (bits - w)
  in
  let u = fill B.zero (B.num_bits (B.pred bound)) in
  if B.compare u bound < 0 then u else uniform_limbs rng bound

let word_outcome { d; threshold; alias; _ } u =
  let j = u / d in
  if u - (j * d) < threshold.(j) then j else alias.(j)

let limbs_outcome { d; threshold; alias; _ } u =
  let q, r = B.ediv u d in
  let j = B.to_int_exn q in
  if B.compare r threshold.(j) < 0 then j else alias.(j)

let draw t rng =
  match t with
  | Word w -> word_outcome w (Prob.Rng.int rng w.bound)
  | Limbs l -> limbs_outcome l (uniform_limbs rng l.bound)

let outcome t u =
  match t with Word w -> word_outcome w (B.to_int_exn u) | Limbs l -> limbs_outcome l u

let bound = function Word w -> B.of_int w.bound | Limbs l -> l.bound
let width = function Word _ -> `Word | Limbs _ -> `Limbs

let pmf t =
  let d, threshold, alias =
    match t with
    | Word w -> (B.of_int w.d, Array.map B.of_int w.threshold, w.alias)
    | Limbs l -> (l.d, l.threshold, l.alias)
  in
  let mass = Array.copy threshold in
  Array.iteri (fun i c -> mass.(alias.(i)) <- B.add mass.(alias.(i)) (B.sub d c)) threshold;
  Array.map (fun x -> Rat.make x (bound t)) mass
