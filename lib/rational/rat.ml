(* Exact rationals: normalized pairs of Bigints.
   Invariant: den > 0 and gcd(|num|, den) = 1; zero is 0/1. *)

module B = Bigint

type t = { num : B.t; den : B.t }

let make num den =
  if B.is_zero den then raise Division_by_zero;
  if B.is_zero num then { num = B.zero; den = B.one }
  else begin
    let num, den = if B.is_negative den then (B.neg num, B.neg den) else (num, den) in
    let g = B.gcd num den in
    if B.is_one g then { num; den } else { num = B.div num g; den = B.div den g }
  end

let of_bigint n = { num = n; den = B.one }
let of_int n = of_bigint (B.of_int n)
let of_ints a b = make (B.of_int a) (B.of_int b)

let zero = of_int 0
let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let half = of_ints 1 2

let num t = t.num
let den t = t.den

(* Small-integer fast path. When every component of both operands is
   inline in Bigint ([B.to_small]) and below 2^30 in magnitude, the
   cross products fit a native int with headroom for one addition, so
   add/sub/mul/div/compare — including the gcd normalization — run
   entirely on native ints with no bignum intermediates and no
   allocation beyond the result. Components at or beyond 2^30 (rare:
   bench histograms put typical LP coefficients near 16 bits) fall
   through to the exact slow path, and so does a limb-form component:
   its [B.not_small] (min_int) is outside the range. *)
let fast_component n = -0x3FFF_FFFF <= n && n <= 0x3FFF_FFFF

let fast an ad bn bd =
  fast_component an && fast_component ad && fast_component bn && fast_component bd

let rec igcd a b = if b = 0 then a else igcd b (a mod b)

(* [make_fast num den] with native [num], [den > 0]: reduce and box. *)
let make_fast num den =
  if num = 0 then { num = B.zero; den = B.one }
  else begin
    let g = igcd den (Stdlib.abs num) in
    { num = B.of_int (num / g); den = B.of_int (den / g) }
  end

let sign t = B.sign t.num
let is_zero t = B.is_zero t.num
let is_one t = B.is_one t.num && B.is_one t.den
let is_integer t = B.is_one t.den

let equal a b = B.equal a.num b.num && B.equal a.den b.den

let compare a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den
     (both denominators positive). *)
  let an = B.to_small a.num and ad = B.to_small a.den in
  let bn = B.to_small b.num and bd = B.to_small b.den in
  if fast an ad bn bd then Stdlib.compare (an * bd) (bn * ad)
  else B.compare (B.mul a.num b.den) (B.mul b.num a.den)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let hash t = Hashtbl.hash (B.hash t.num, B.hash t.den)

let bit_size t = Stdlib.max (B.num_bits t.num) (B.num_bits t.den)

let neg t = { t with num = B.neg t.num }
let abs t = { t with num = B.abs t.num }

(* Slow-path add/mul follow Knuth 4.5.1: because the operands are
   already reduced, gcd work happens on the (small) denominators and
   cross pairs instead of the full products, and the results below are
   reduced by construction — no gcd over wide products ever runs. *)
let add a b =
  let an = B.to_small a.num and ad = B.to_small a.den in
  let bn = B.to_small b.num and bd = B.to_small b.den in
  if fast an ad bn bd then make_fast ((an * bd) + (bn * ad)) (ad * bd)
  else if B.is_zero a.num then b
  else if B.is_zero b.num then a
  else begin
    let d1 = B.gcd a.den b.den in
    if B.is_one d1 then
      (* Coprime denominators: the sum is already in lowest terms. *)
      { num = B.add (B.mul a.num b.den) (B.mul b.num a.den); den = B.mul a.den b.den }
    else begin
      let ad' = B.div a.den d1 and bd' = B.div b.den d1 in
      let t = B.add (B.mul a.num bd') (B.mul b.num ad') in
      if B.is_zero t then { num = B.zero; den = B.one }
      else begin
        (* gcd(t, ad'·bd'·d1) = gcd(t, d1): a common prime with ad'
           or bd' would divide b.num or a.num respectively. *)
        let d2 = B.gcd t d1 in
        if B.is_one d2 then { num = t; den = B.mul (B.mul ad' bd') d1 }
        else { num = B.div t d2; den = B.mul ad' (B.div b.den d2) }
      end
    end
  end

let sub a b =
  let an = B.to_small a.num and ad = B.to_small a.den in
  let bn = B.to_small b.num and bd = B.to_small b.den in
  if fast an ad bn bd then make_fast ((an * bd) - (bn * ad)) (ad * bd)
  else add a (neg b)

let mul a b =
  let an = B.to_small a.num and ad = B.to_small a.den in
  let bn = B.to_small b.num and bd = B.to_small b.den in
  if fast an ad bn bd then make_fast (an * bn) (ad * bd)
  else if B.is_zero a.num || B.is_zero b.num then { num = B.zero; den = B.one }
  else begin
    (* Cross-reduce before multiplying: with reduced operands,
       (a.num/g1)·(b.num/g2) over (a.den/g2)·(b.den/g1) is itself
       reduced, and both gcds run on narrow values. *)
    let g1 = B.gcd a.num b.den and g2 = B.gcd b.num a.den in
    let n1 = if B.is_one g1 then a.num else B.div a.num g1 in
    let d1 = if B.is_one g1 then b.den else B.div b.den g1 in
    let n2 = if B.is_one g2 then b.num else B.div b.num g2 in
    let d2 = if B.is_one g2 then a.den else B.div a.den g2 in
    { num = B.mul n1 n2; den = B.mul d2 d1 }
  end

let inv t =
  if is_zero t then raise Division_by_zero;
  if B.is_negative t.num then { num = B.neg t.den; den = B.neg t.num }
  else { num = t.den; den = t.num }

let div a b =
  let an = B.to_small a.num and ad = B.to_small a.den in
  let bn = B.to_small b.num and bd = B.to_small b.den in
  if fast an ad bn bd then begin
    if bn = 0 then raise Division_by_zero;
    let num = an * bd and den = ad * bn in
    if den < 0 then make_fast (-num) (-den) else make_fast num den
  end
  else mul a (inv b)

let pow t e =
  if e >= 0 then { num = B.pow t.num e; den = B.pow t.den e }
  else inv { num = B.pow t.num (-e); den = B.pow t.den (-e) }

let mul_int t n = make (B.mul_int t.num n) t.den
let div_int t n = make t.num (B.mul_int t.den n)

let floor t = fst (B.ediv t.num t.den)
let ceil t = B.neg (fst (B.ediv (B.neg t.num) t.den))

let round t =
  (* Ties away from zero: round(|t|) = floor(|t| + 1/2). *)
  let r = floor (add (abs t) half) in
  if sign t < 0 then B.neg r else r

let sum = List.fold_left add zero

(* analysis: float-ok — to_float is the audited exit boundary from ℚ;
   callers own the rounding from here on. *)
let to_float t = B.to_float t.num /. B.to_float t.den

let to_string t =
  if is_integer t then B.to_string t.num
  else B.to_string t.num ^ "/" ^ B.to_string t.den

let to_decimal_string ?(places = 6) t =
  let scale = B.pow (B.of_int 10) places in
  let scaled = round (mul t (of_bigint scale)) in
  let s = B.to_string (B.abs scaled) in
  let s = if String.length s <= places then String.make (places + 1 - String.length s) '0' ^ s else s in
  let cut = String.length s - places in
  let body =
    if places = 0 then s
    else String.sub s 0 cut ^ "." ^ String.sub s cut places
  in
  if B.is_negative scaled then "-" ^ body else body

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    let n = B.of_string (String.sub s 0 i) in
    let d = B.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make n d
  | None ->
    (match String.index_opt s '.' with
     | None -> of_bigint (B.of_string s)
     | Some i ->
       let int_part = String.sub s 0 i in
       let frac = String.sub s (i + 1) (String.length s - i - 1) in
       if frac = "" then invalid_arg "Rat.of_string: trailing dot";
       String.iter (function '0' .. '9' -> () | _ -> invalid_arg "Rat.of_string: bad fraction digits") frac;
       let negative = String.length int_part > 0 && int_part.[0] = '-' in
       let int_value = if int_part = "" || int_part = "-" || int_part = "+" then B.zero else B.of_string int_part in
       let scale = B.pow (B.of_int 10) (String.length frac) in
       let frac_value = B.of_string frac in
       let total = B.add (B.mul (B.abs int_value) scale) frac_value in
       let total = if negative then B.neg total else total in
       make total scale)

let of_string_opt s = try Some (of_string s) with Invalid_argument _ | Failure _ -> None

(* analysis: float-ok — the audited entry boundary into ℚ: every
   finite float is exactly a dyadic rational, so nothing is lost. *)
let of_float_dyadic f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> invalid_arg "Rat.of_float_dyadic: not finite"
  | FP_zero -> zero
  | FP_normal | FP_subnormal ->
    let mantissa, exponent = Float.frexp f in
    (* mantissa * 2^53 is integral for any finite float. *)
    let scaled = Int64.of_float (Float.ldexp mantissa 53) in
    let n = B.of_string (Int64.to_string scaled) in
    let e = exponent - 53 in
    if e >= 0 then of_bigint (B.shift_left n e)
    else make n (B.shift_left B.one (-e))

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end

let approximate ~max_den x =
  if B.compare max_den B.one < 0 then invalid_arg "Rat.approximate: max_den must be >= 1";
  if B.compare (den x) max_den <= 0 then x
  else begin
    let target = abs x in
    (* Convergent recurrence h_k = a_k h_{k-1} + h_{k-2} (same for k),
       seeded with (1,0) and (0,1). On denominator overflow, compare
       the last convergent against the best semiconvergent. *)
    let best =
      let rec go p q (h1, k1) (h2, k2) =
        if B.is_zero q then make h1 k1
        else begin
          let a, r = B.ediv p q in
          let h = B.add (B.mul a h1) h2 and k = B.add (B.mul a k1) k2 in
          if B.compare k max_den > 0 then begin
            let a' = B.div (B.sub max_den k2) k1 in
            let prev = make h1 k1 in
            if B.is_zero a' && B.is_zero k2 then prev
            else begin
              let semi = make (B.add (B.mul a' h1) h2) (B.add (B.mul a' k1) k2) in
              let d_prev = abs (sub target prev) and d_semi = abs (sub target semi) in
              if compare d_semi d_prev <= 0 then semi else prev
            end
          end
          else go q r (h, k) (h1, k1)
        end
      in
      go (num target) (den target) (B.one, B.zero) (B.zero, B.one)
    in
    if sign x < 0 then neg best else best
  end

let sqrt_exact x =
  if sign x < 0 then None
  else
    match (B.sqrt_exact (num x), B.sqrt_exact (den x)) with
    | Some a, Some b -> Some (make a b)
    | _ -> None
