(** Deterministic pseudo-random number generator (splitmix64).

    Every sampler in the reproduction takes an explicit [t] so that all
    experiments are reproducible from a seed; no global random state is
    used anywhere in the repository. *)

(* analysis: domain-local — a stream is split per request and then
   owned by exactly one worker domain; nothing is shared. *)
type t = { mutable state : int64 }

let create ?(seed = 0x9E3779B97F4A7C15L) () = { state = seed }
let of_int seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64: Steele, Lea & Flood (2014). *)
let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform float in [0, 1). 53 random mantissa bits. *)
(* analysis: float-ok — unit-interval conversion for the float-valued
   draws (the Laplace baseline, Discrete's inverse CDF, synthetic
   data); no mechanism draw calls it, Mech.Sampler draws integers. *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(** Uniform int in [0, bound). @raise Invalid_argument on [bound <= 0]. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  (* The smallest 2^k − 1 (k >= 1) covering bound − 1: smear its top bit down. *)
  let mask =
    let m = (bound - 1) lor 1 in
    let m = m lor (m lsr 1) in
    let m = m lor (m lsr 2) in
    let m = m lor (m lsr 4) in
    let m = m lor (m lsr 8) in
    let m = m lor (m lsr 16) in
    m lor (m lsr 32)
  in
  let rec draw () =
    let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) land mask in
    if v < bound then v else draw ()
  in
  draw ()

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** Derive an independent generator (for parallel experiment arms). *)
let split t =
  let s = next_int64 t in
  { state = Int64.logxor s 0xD1B54A32D192ED03L }

(* k sequential splits. The i-th stream depends only on the parent's
   state and i, never on which thread of control later consumes it —
   this is what lets the engine's worker pool hand stream i to
   whichever Domain picks up job i and still produce byte-identical
   batches for every worker count. *)
let streams t k =
  if k < 0 then invalid_arg "Rng.streams: negative count";
  Array.init k (fun _ -> split t)
