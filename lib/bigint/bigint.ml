(* Arbitrary-precision signed integers with a small-integer fast path.

   Representation:
   - [Small n]: any value whose magnitude fits in 62 bits, held as a
     native OCaml int ([n <> min_int], so [abs]/[neg] never overflow).
   - [Big { sign; mag }]: sign-magnitude over base-2^30 limbs stored
     little-endian in int arrays.

   Canonical-form invariant (relied on by [equal]/[compare]/[hash]):
   a value is [Small] iff its magnitude needs at most 62 bits; [Big]
   values always need 63 bits or more. Every constructor normalizes
   through {!make_sm}.

   The fast path matters: LP pivoting over exact rationals spends
   almost all its time on coefficients of a few dozen bits (the bench
   histograms put the mass under 16 bits), so add/mul/divmod/gcd run
   on native ints and only promote to limb arithmetic on overflow —
   the boundary is exactly 63 bits of magnitude (|v| >= 2^62).

   Invariants of the limb layer:
   - [mag] has no leading (high-order) zero limbs;
   - every limb is in [0, base).

   Base 2^30 keeps every intermediate of schoolbook multiplication and
   Knuth algorithm-D division below 2^62, safely inside OCaml's 63-bit
   native ints. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = Small of int | Big of { sign : int; mag : int array }

let zero = Small 0

(* ------------------------------------------------------------------ *)
(* Magnitude helpers (int arrays, little-endian, may need trimming).  *)
(* ------------------------------------------------------------------ *)

let mag_trim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_is_zero a = Array.length a = 0

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  mag_trim r

(* Requires [a >= b]. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  mag_trim r

let mag_mul_schoolbook a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land base_mask;
          carry := s lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land base_mask;
          carry := s lsr base_bits;
          incr k
        done
      end
    done;
    mag_trim r
  end

let karatsuba_threshold = 32

(* Slice [a] from limb [lo] (inclusive) of length at most [len],
   trimmed. *)
let mag_slice a lo len =
  let la = Array.length a in
  if lo >= la then [||]
  else mag_trim (Array.sub a lo (Stdlib.min len (la - lo)))

let rec mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then mag_mul_schoolbook a b
  else begin
    (* Karatsuba: split at half of the longer operand. *)
    let m = (Stdlib.max la lb + 1) / 2 in
    let a0 = mag_slice a 0 m and a1 = mag_slice a m max_int in
    let b0 = mag_slice b 0 m and b1 = mag_slice b m max_int in
    let z0 = mag_mul a0 b0 in
    let z2 = mag_mul a1 b1 in
    let z1 =
      (* (a0+a1)(b0+b1) - z0 - z2 *)
      let s = mag_mul (mag_add a0 a1) (mag_add b0 b1) in
      mag_sub (mag_sub s z0) z2
    in
    (* result = z0 + z1*B^m + z2*B^(2m) *)
    let lr = Stdlib.max (Array.length z0)
        (Stdlib.max (Array.length z1 + m) (Array.length z2 + (2 * m))) + 1 in
    let r = Array.make lr 0 in
    Array.blit z0 0 r 0 (Array.length z0);
    let add_at src off =
      let carry = ref 0 in
      let ls = Array.length src in
      for i = 0 to ls - 1 do
        let s = r.(off + i) + src.(i) + !carry in
        r.(off + i) <- s land base_mask;
        carry := s lsr base_bits
      done;
      let k = ref (off + ls) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land base_mask;
        carry := s lsr base_bits;
        incr k
      done
    in
    add_at z1 m;
    add_at z2 (2 * m);
    mag_trim r
  end

(* Divide magnitude by a small positive int (< base): quotient, rem. *)
let mag_divmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (mag_trim q, !r)

let mag_shift_left a k =
  if mag_is_zero a || k = 0 then Array.copy a
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let s = (a.(i) lsl bits) lor !carry in
        r.(limbs + i) <- s land base_mask;
        carry := s lsr base_bits
      done;
      r.(limbs + la) <- !carry
    end;
    mag_trim r
  end

let mag_shift_right a k =
  if mag_is_zero a || k = 0 then Array.copy a
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    if limbs >= la then [||]
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if bits = 0 then Array.blit a limbs r 0 lr
      else begin
        for i = 0 to lr - 1 do
          let lo = a.(limbs + i) lsr bits in
          let hi = if limbs + i + 1 < la then (a.(limbs + i + 1) lsl (base_bits - bits)) land base_mask else 0 in
          r.(i) <- lo lor hi
        done
      end;
      mag_trim r
    end
  end

let bits_of_limb l =
  let rec go l acc = if l = 0 then acc else go (l lsr 1) (acc + 1) in
  go l 0

let mag_num_bits a =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * base_bits) + bits_of_limb a.(n - 1)

(* Knuth algorithm D. Requires [Array.length b >= 2], [a >= b]. *)
let mag_divmod_knuth a b =
  let n = Array.length b in
  (* Normalize so the top limb of the divisor has its high bit set. *)
  let shift = base_bits - bits_of_limb b.(n - 1) in
  let u0 = mag_shift_left a shift in
  let v = mag_shift_left b shift in
  assert (Array.length v = n);
  let m = Array.length u0 - n in
  (* u gets one extra high limb. *)
  let u = Array.make (Array.length u0 + 1) 0 in
  Array.blit u0 0 u 0 (Array.length u0);
  let q = Array.make (m + 1) 0 in
  let vn1 = v.(n - 1) and vn2 = v.(n - 2) in
  for j = m downto 0 do
    let top = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (top / vn1) and rhat = ref (top mod vn1) in
    let continue_adjust = ref true in
    while !continue_adjust do
      if !qhat >= base || !qhat * vn2 > (!rhat lsl base_bits) lor u.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + vn1;
        if !rhat >= base then continue_adjust := false
      end
      else continue_adjust := false
    done;
    (* Multiply-subtract: u[j..j+n] -= qhat * v. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let s = u.(j + i) - (p land base_mask) - !borrow in
      if s < 0 then begin
        u.(j + i) <- s + base;
        borrow := 1
      end
      else begin
        u.(j + i) <- s;
        borrow := 0
      end
    done;
    let s = u.(j + n) - !carry - !borrow in
    if s < 0 then begin
      (* qhat was one too large: add back. *)
      u.(j + n) <- s + base;
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let t = u.(j + i) + v.(i) + !carry2 in
        u.(j + i) <- t land base_mask;
        carry2 := t lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry2) land base_mask
    end
    else u.(j + n) <- s;
    q.(j) <- !qhat
  done;
  let r = mag_shift_right (mag_trim (Array.sub u 0 n)) shift in
  (mag_trim q, r)

let mag_divmod a b =
  if mag_is_zero b then raise Division_by_zero;
  let c = mag_compare a b in
  if c < 0 then ([||], Array.copy a)
  else if c = 0 then ([| 1 |], [||])
  else if Array.length b = 1 then
    let q, r = mag_divmod_small a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  else mag_divmod_knuth a b

(* ------------------------------------------------------------------ *)
(* Small/Big boundary.                                                *)
(* ------------------------------------------------------------------ *)

(* Magnitudes of up to [small_bits] bits live in the [Small]
   constructor; 2^62 (63 bits) is the first promoted value, keeping
   [min_int] — whose magnitude cannot be negated natively — out of the
   fast path entirely. *)
let small_bits = 62

let bits_of_pos_int n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* [v > 0]. *)
let mag_of_pos_int v =
  let rec limbs v acc =
    if v = 0 then List.rev acc else limbs (v lsr base_bits) ((v land base_mask) :: acc)
  in
  Array.of_list (limbs v [])

(* Requires [mag_num_bits mag <= 62]: the magnitude fits a native int. *)
let int_of_mag mag =
  let v = ref 0 in
  for i = Array.length mag - 1 downto 0 do
    v := (!v lsl base_bits) lor mag.(i)
  done;
  !v

(* The one canonicalizing constructor: every limb-layer result funnels
   through here so the [Small]-iff-fits invariant holds everywhere. *)
let make_sm sign mag =
  let mag = mag_trim mag in
  if mag_is_zero mag then zero
  else if mag_num_bits mag <= small_bits then Small (sign * int_of_mag mag)
  else Big { sign; mag }

(* Sign and magnitude of any value; allocates for [Small] — only the
   promoted slow paths call this. *)
let parts t =
  match t with
  | Small 0 -> (0, [||])
  | Small n -> ((if n > 0 then 1 else -1), mag_of_pos_int (abs n))
  | Big { sign; mag } -> (sign, mag)

let of_int n = if n = min_int then Big { sign = -1; mag = [| 0; 0; 4 |] } else Small n

let sign t = match t with Small n -> Stdlib.compare n 0 | Big b -> b.sign
let is_zero t = match t with Small 0 -> true | _ -> false
let is_negative t = match t with Small n -> n < 0 | Big b -> b.sign < 0

let one = Small 1
let two = Small 2
let minus_one = Small (-1)

let is_one t = match t with Small 1 -> true | _ -> false

let neg t =
  match t with
  | Small n -> Small (-n) (* never [min_int] by the invariant *)
  | Big b -> Big { b with sign = -b.sign }

let abs t = match t with Small n -> Small (abs n) | Big b -> Big { b with sign = 1 }

let compare a b =
  match (a, b) with
  | Small x, Small y -> Stdlib.compare x y
  | Small _, Big b -> if b.sign > 0 then -1 else 1
  | Big a, Small _ -> if a.sign > 0 then 1 else -1
  | Big a, Big b ->
    if a.sign <> b.sign then Stdlib.compare a.sign b.sign
    else if a.sign >= 0 then mag_compare a.mag b.mag
    else mag_compare b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash t = match t with Small n -> Hashtbl.hash n | Big b -> Hashtbl.hash (b.sign, b.mag)

let num_bits t =
  match t with
  | Small 0 -> 0
  | Small n -> bits_of_pos_int (Stdlib.abs n)
  | Big b -> mag_num_bits b.mag

(* Slow path: exact addition through the limb layer. *)
let add_via_mag a b =
  let sa, ma = parts a and sb, mb = parts b in
  if sa = 0 then b
  else if sb = 0 then a
  else if sa = sb then make_sm sa (mag_add ma mb)
  else begin
    let c = mag_compare ma mb in
    if c = 0 then zero
    else if c > 0 then make_sm sa (mag_sub ma mb)
    else make_sm sb (mag_sub mb ma)
  end

let add a b =
  match (a, b) with
  | Small x, Small y ->
    let s = x + y in
    (* Native overflow iff the operands agree in sign and the wrapped
       sum does not; [min_int] is representable but not [Small]. *)
    if ((x >= 0) = (y >= 0) && (s >= 0) <> (x >= 0)) || s = min_int then add_via_mag a b
    else Small s
  | _ -> add_via_mag a b

let sub a b = add a (neg b)
let succ a = add a one
let pred a = sub a one

let mul a b =
  match (a, b) with
  | Small 0, _ | _, Small 0 -> zero
  | Small x, Small y ->
    (* |x·y| < 2^(bits x + bits y) <= 2^62, so the native product is
       exact and [Small]-safe whenever the bit budget fits. *)
    if bits_of_pos_int (Stdlib.abs x) + bits_of_pos_int (Stdlib.abs y) <= small_bits
    then Small (x * y)
    else
      let sa, ma = parts a and sb, mb = parts b in
      make_sm (sa * sb) (mag_mul ma mb)
  | _ ->
    let sa, ma = parts a and sb, mb = parts b in
    if sa = 0 || sb = 0 then zero else make_sm (sa * sb) (mag_mul ma mb)

let mul_int a n = mul a (of_int n)
let add_int a n = add a (of_int n)

let divmod a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y ->
    (* OCaml's (/) and (mod) are truncated division, the documented
       contract; magnitudes only shrink, so results stay [Small]. *)
    (Small (x / y), Small (x mod y))
  | _ ->
    let sa, ma = parts a and sb, mb = parts b in
    if sb = 0 then raise Division_by_zero;
    if sa = 0 then (zero, zero)
    else begin
      let qm, rm = mag_divmod ma mb in
      (make_sm (sa * sb) qm, make_sm sa rm)
    end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv a b =
  let q, r = divmod a b in
  if sign r >= 0 then (q, r)
  else if sign b > 0 then (pred q, add r b)
  else (succ q, sub r b)

let gcd a b =
  match (a, b) with
  | Small x, Small y ->
    let rec go a b = if b = 0 then a else go b (a mod b) in
    Small (go (Stdlib.abs x) (Stdlib.abs y))
  | _ ->
    let rec go a b = if is_zero b then a else go b (rem a b) in
    go (abs a) (abs b)

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc b) (mul b b) (e lsr 1)
    else go acc (mul b b) (e lsr 1)
  in
  go one b e

let shift_left a k =
  if k < 0 then invalid_arg "Bigint.shift_left";
  match a with
  | Small 0 -> zero
  | Small n when bits_of_pos_int (Stdlib.abs n) + k <= small_bits -> Small (n lsl k)
  | _ ->
    let sa, ma = parts a in
    make_sm sa (mag_shift_left ma k)

let shift_right a k =
  if k < 0 then invalid_arg "Bigint.shift_right";
  match a with
  | Small n -> Small (n asr k) (* asr is floor division by 2^k *)
  | Big { sign; mag } ->
    if sign > 0 then make_sm 1 (mag_shift_right mag k)
    else begin
      (* Arithmetic shift: floor division by 2^k — truncate the
         magnitude, then correct down when bits were dropped. *)
      let dropped =
        let limbs = Stdlib.min (Array.length mag) ((k / base_bits) + 1) in
        let rec any i =
          if i >= limbs then false
          else if k >= base_bits * (i + 1) then mag.(i) <> 0 || any (i + 1)
          else mag.(i) land ((1 lsl (k - (base_bits * i))) - 1) <> 0
        in
        k > 0 && any 0
      in
      let q = make_sm (-1) (mag_shift_right mag k) in
      if dropped then pred q else q
    end

let to_int t =
  match t with
  | Small n -> Some n
  | Big _ -> if equal t (of_int Stdlib.min_int) then Some Stdlib.min_int else None

let not_small = Stdlib.min_int
let to_small t = match t with Small n -> n | Big _ -> not_small

let to_int_exn t =
  match to_int t with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: value out of native int range"

(* analysis: float-ok — audited exit boundary: limb-wise Horner
   conversion out of exact integers, used only by Rat.to_float. *)
let to_float t =
  match t with
  | Small n -> float_of_int n
  | Big { sign; mag } ->
    let acc = ref 0.0 in
    for i = Array.length mag - 1 downto 0 do
      acc := (!acc *. float_of_int base) +. float_of_int mag.(i)
    done;
    float_of_int sign *. !acc

(* Decimal I/O goes through base 10^9 chunks (10^9 < 2^30). *)
let decimal_chunk = 1_000_000_000

let to_string t =
  match t with
  | Small n -> string_of_int n
  | Big { sign; mag } ->
    let buf = Buffer.create 32 in
    let rec chunks mag acc =
      if mag_is_zero mag then acc
      else
        let q, r = mag_divmod_small mag decimal_chunk in
        chunks q (r :: acc)
    in
    (match chunks mag [] with
     | [] -> "0"
     | first :: rest ->
       if sign < 0 then Buffer.add_char buf '-';
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
       Buffer.contents buf)

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero and digits = ref 0 in
  let chunk = ref 0 and chunk_len = ref 0 in
  let flush () =
    if !chunk_len > 0 then begin
      (* chunk_len <= 9, so the scale fits a native int comfortably;
         integer exponentiation keeps the parse float-free. *)
      let rec pow10 k acc = if k = 0 then acc else pow10 (k - 1) (acc * 10) in
      let scale = of_int (pow10 !chunk_len 1) in
      acc := add (mul !acc scale) (of_int !chunk);
      chunk := 0;
      chunk_len := 0
    end
  in
  for i = start to len - 1 do
    match s.[i] with
    | '0' .. '9' as c ->
      incr digits;
      chunk := (!chunk * 10) + (Char.code c - Char.code '0');
      incr chunk_len;
      if !chunk_len = 9 then flush ()
    | '_' -> ()
    | _ -> invalid_arg "Bigint.of_string: invalid character"
  done;
  flush ();
  if !digits = 0 then invalid_arg "Bigint.of_string: no digits";
  if sign < 0 then neg !acc else !acc

let of_string_opt s = try Some (of_string s) with Invalid_argument _ -> None

let num_digits t = if is_zero t then 1 else String.length (to_string (abs t))

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

let lcm a b =
  if is_zero a || is_zero b then zero
  else
    let g = gcd a b in
    abs (mul (div a g) b)

let isqrt x =
  if is_negative x then invalid_arg "Bigint.isqrt: negative input";
  if is_zero x then zero
  else begin
    (* Newton iteration from a safe over-estimate (monotone descent). *)
    let rec go guess =
      let next = shift_right (add guess (div x guess)) 1 in
      if compare next guess >= 0 then guess else go next
    in
    go (shift_left one ((num_bits x / 2) + 1))
  end

let sqrt_exact x =
  if is_negative x then None
  else
    let r = isqrt x in
    if equal x (mul r r) then Some r else None

let of_int64 v = of_string (Int64.to_string v)

let to_int64 t =
  (* int64 range is wider than the [Small] range; go through strings
     only when the bit count is near the boundary. *)
  match to_int t with
  | Some n -> Some (Int64.of_int n)
  | None ->
    if num_bits t > 64 then None
    else
      match Int64.of_string_opt (to_string t) with
      | Some v when to_string t = Int64.to_string v -> Some v
      | _ -> None
