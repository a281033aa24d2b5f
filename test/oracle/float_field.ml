(* Floats as an (approximate) field, with a small zero tolerance used
   only for sign classification. *)

type t = float

let eps = 1e-9
let zero = 0.0
let one = 1.0
let of_int = float_of_int
let add = ( +. )
let sub = ( -. )
let mul = ( *. )
let div = ( /. )
let neg x = -.x
let abs = Float.abs
let equal (a : float) b = a = b
let compare = Float.compare
let is_zero x = Float.abs x <= eps
let sign x = if Float.abs x <= eps then 0 else if x > 0.0 then 1 else -1
let bit_size _ = 0
let to_string = string_of_float
let pp = Format.pp_print_float
