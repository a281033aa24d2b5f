(* Order statistics. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]; [nan] on no samples. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted a in
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* The middle value, averaging the two middle ones on even counts. *)
let median a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Samples strictly above [v]. *)
let beyond a v = Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 a

(* The [p] percentile, only when at least ten samples lie beyond it:
   with fewer, one slow request decides it. *)
let published a p =
  let v = percentile a p in
  if beyond a v >= 10 then Some v else None

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives
   them (the default "exclusive" method); needs two samples. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n < 2 then (Float.nan, Float.nan, Float.nan)
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((s.(j - 1) *. (4. -. delta)) +. (s.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
