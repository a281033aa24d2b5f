(** Dense matrices and vectors over an arbitrary {!Field.S}.

    Matrices are immutable from the caller's point of view: every
    operation returns fresh storage. Row-major [t.(i).(j)] indexing. *)

module Make (F : Field.S) = struct
  type elt = F.t
  type vec = F.t array
  type t = F.t array array

  (* ---------------------------------------------------------------- *)
  (* Construction and access                                          *)
  (* ---------------------------------------------------------------- *)

  let make rows cols x : t =
    if rows < 0 || cols < 0 then invalid_arg "Matrix.make";
    Array.init rows (fun _ -> Array.make cols x)

  let init rows cols f : t = Array.init rows (fun i -> Array.init cols (fun j -> f i j))

  let identity n : t = init n n (fun i j -> if i = j then F.one else F.zero)

  let of_rows (rows : F.t list list) : t =
    match rows with
    | [] -> [||]
    | first :: _ ->
      let cols = List.length first in
      List.iter (fun r -> if List.length r <> cols then invalid_arg "Matrix.of_rows: ragged rows") rows;
      Array.of_list (List.map Array.of_list rows)

  let of_arrays (a : F.t array array) : t =
    let m = Array.map Array.copy a in
    (match Array.length m with
     | 0 -> ()
     | _ ->
       let cols = Array.length m.(0) in
       Array.iter (fun r -> if Array.length r <> cols then invalid_arg "Matrix.of_arrays: ragged rows") m);
    m

  let copy (m : t) : t = Array.map Array.copy m
  let rows (m : t) = Array.length m
  let cols (m : t) = if Array.length m = 0 then 0 else Array.length m.(0)
  let get (m : t) i j = m.(i).(j)
  let row (m : t) i : vec = Array.copy m.(i)
  let column (m : t) j : vec = Array.init (rows m) (fun i -> m.(i).(j))

  let transpose (m : t) : t = init (cols m) (rows m) (fun i j -> m.(j).(i))

  let map f (m : t) : t = Array.map (Array.map f) m

  (* ---------------------------------------------------------------- *)
  (* Algebra                                                          *)
  (* ---------------------------------------------------------------- *)

  let equal (a : t) (b : t) =
    rows a = rows b && cols a = cols b
    && begin
      let ok = ref true in
      for i = 0 to rows a - 1 do
        for j = 0 to cols a - 1 do
          if not (F.equal a.(i).(j) b.(i).(j)) then ok := false
        done
      done;
      !ok
    end

  let add (a : t) (b : t) : t =
    if rows a <> rows b || cols a <> cols b then invalid_arg "Matrix.add: shape mismatch";
    init (rows a) (cols a) (fun i j -> F.add a.(i).(j) b.(i).(j))

  let sub (a : t) (b : t) : t =
    if rows a <> rows b || cols a <> cols b then invalid_arg "Matrix.sub: shape mismatch";
    init (rows a) (cols a) (fun i j -> F.sub a.(i).(j) b.(i).(j))

  let scale k (m : t) : t = map (F.mul k) m

  let mul (a : t) (b : t) : t =
    if cols a <> rows b then invalid_arg "Matrix.mul: shape mismatch";
    Obs.incr "matrix.muls";
    let n = cols a in
    init (rows a) (cols b) (fun i j ->
        let acc = ref F.zero in
        for k = 0 to n - 1 do
          acc := F.add !acc (F.mul a.(i).(k) b.(k).(j))
        done;
        !acc)

  let mul_vec (m : t) (v : vec) : vec =
    if cols m <> Array.length v then invalid_arg "Matrix.mul_vec: shape mismatch";
    Array.init (rows m) (fun i ->
        let acc = ref F.zero in
        for j = 0 to cols m - 1 do
          acc := F.add !acc (F.mul m.(i).(j) v.(j))
        done;
        !acc)

  let vec_mul (v : vec) (m : t) : vec =
    if rows m <> Array.length v then invalid_arg "Matrix.vec_mul: shape mismatch";
    Array.init (cols m) (fun j ->
        let acc = ref F.zero in
        for i = 0 to rows m - 1 do
          acc := F.add !acc (F.mul v.(i) m.(i).(j))
        done;
        !acc)

  let dot (a : vec) (b : vec) =
    if Array.length a <> Array.length b then invalid_arg "Matrix.dot: length mismatch";
    let acc = ref F.zero in
    for i = 0 to Array.length a - 1 do
      acc := F.add !acc (F.mul a.(i) b.(i))
    done;
    !acc

  (* ---------------------------------------------------------------- *)
  (* Stochastic-matrix predicates (used throughout the DP stack)      *)
  (* ---------------------------------------------------------------- *)

  let row_sums (m : t) : vec =
    Array.map
      (fun r ->
        let acc = ref F.zero in
        Array.iter (fun x -> acc := F.add !acc x) r;
        !acc)
      m

  let is_nonnegative (m : t) =
    Array.for_all (Array.for_all (fun x -> F.sign x >= 0)) m

  (* Row sums are all exactly one (generalized stochastic). *)
  let is_generalized_stochastic (m : t) =
    Array.for_all (fun s -> F.equal s F.one) (row_sums m)

  let is_row_stochastic (m : t) = is_nonnegative m && is_generalized_stochastic m

  (* ---------------------------------------------------------------- *)
  (* Printing                                                         *)
  (* ---------------------------------------------------------------- *)

  let pp fmt (m : t) =
    Format.fprintf fmt "@[<v>";
    Array.iteri
      (fun i r ->
        if i > 0 then Format.fprintf fmt "@,";
        Format.fprintf fmt "[ ";
        Array.iteri
          (fun j x ->
            if j > 0 then Format.fprintf fmt "  ";
            F.pp fmt x)
          r;
        Format.fprintf fmt " ]")
      m;
    Format.fprintf fmt "@]"

  let to_string (m : t) = Format.asprintf "%a" pp m
end

module Q = Make (Field.Rational)
