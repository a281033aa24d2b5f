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
  let to_arrays (m : t) = copy m

  let transpose (m : t) : t = init (cols m) (rows m) (fun i j -> m.(j).(i))

  let map f (m : t) : t = Array.map (Array.map f) m
  let mapij f (m : t) : t = Array.mapi (fun i r -> Array.mapi (fun j x -> f i j x) r) m

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
  (* Gaussian elimination: determinant, inverse, solve, rank          *)
  (* ---------------------------------------------------------------- *)

  (* Partial pivoting picks the largest |pivot| (meaningful for floats,
     harmless for exact fields). Returns None when singular. *)

  (* Largest [F.bit_size] over a matrix; 0 over float fields, where the
     scan is pointless — callers gate on the result being positive. *)
  let max_bit_size (m : t) =
    let best = ref 0 in
    Array.iter (Array.iter (fun x -> best := Stdlib.max !best (F.bit_size x))) m;
    !best

  let determinant (m : t) =
    let n = rows m in
    if n <> cols m then invalid_arg "Matrix.determinant: not square";
    Obs.span ~attrs:[ ("n", Obs.Int n) ] "matrix.determinant" @@ fun () ->
    let a = copy m in
    let det = ref F.one in
    (try
       for col = 0 to n - 1 do
         (* Find pivot. *)
         let pivot = ref (-1) in
         let best = ref F.zero in
         for r = col to n - 1 do
           let v = F.abs a.(r).(col) in
           if not (F.is_zero v) && (!pivot = -1 || F.compare v !best > 0) then begin
             pivot := r;
             best := v
           end
         done;
         if !pivot = -1 then begin
           det := F.zero;
           raise Exit
         end;
         if !pivot <> col then begin
           let tmp = a.(col) in
           a.(col) <- a.(!pivot);
           a.(!pivot) <- tmp;
           det := F.neg !det
         end;
         det := F.mul !det a.(col).(col);
         let inv_p = F.div F.one a.(col).(col) in
         for r = col + 1 to n - 1 do
           if not (F.is_zero a.(r).(col)) then begin
             let factor = F.mul a.(r).(col) inv_p in
             for c = col to n - 1 do
               a.(r).(c) <- F.sub a.(r).(c) (F.mul factor a.(col).(c))
             done
           end
         done
       done
     with Exit -> ());
    if Obs.enabled () then begin
      let bits = F.bit_size !det in
      if bits > 0 then Obs.observe "matrix.det_bits" bits
    end;
    !det

  (* Gauss-Jordan on [a | rhs]; returns the transformed rhs or None when
     [a] is singular. *)
  let gauss_jordan (m : t) (rhs : t) : t option =
    let n = rows m in
    if n <> cols m then invalid_arg "Matrix.gauss_jordan: not square";
    if rows rhs <> n then invalid_arg "Matrix.gauss_jordan: rhs shape";
    let a = copy m and b = copy rhs in
    let wb = cols rhs in
    let ok = ref true in
    (try
       for col = 0 to n - 1 do
         let pivot = ref (-1) in
         let best = ref F.zero in
         for r = col to n - 1 do
           let v = F.abs a.(r).(col) in
           if not (F.is_zero v) && (!pivot = -1 || F.compare v !best > 0) then begin
             pivot := r;
             best := v
           end
         done;
         if !pivot = -1 then begin
           ok := false;
           raise Exit
         end;
         if !pivot <> col then begin
           let tmp = a.(col) in
           a.(col) <- a.(!pivot);
           a.(!pivot) <- tmp;
           let tmp = b.(col) in
           b.(col) <- b.(!pivot);
           b.(!pivot) <- tmp
         end;
         let inv_p = F.div F.one a.(col).(col) in
         for c = 0 to n - 1 do
           a.(col).(c) <- F.mul a.(col).(c) inv_p
         done;
         for c = 0 to wb - 1 do
           b.(col).(c) <- F.mul b.(col).(c) inv_p
         done;
         for r = 0 to n - 1 do
           if r <> col && not (F.is_zero a.(r).(col)) then begin
             let factor = a.(r).(col) in
             for c = 0 to n - 1 do
               a.(r).(c) <- F.sub a.(r).(c) (F.mul factor a.(col).(c))
             done;
             for c = 0 to wb - 1 do
               b.(r).(c) <- F.sub b.(r).(c) (F.mul factor b.(col).(c))
             done
           end
         done
       done
     with Exit -> ());
    if !ok then Some b else None

  let inverse (m : t) : t option =
    Obs.span ~attrs:[ ("n", Obs.Int (rows m)) ] "matrix.inverse" @@ fun () ->
    Obs.incr "matrix.inversions";
    Resilience.Fault.trip "matrix.inverse";
    let result = gauss_jordan m (identity (rows m)) in
    (match result with
     | Some inv when Obs.enabled () ->
       let bits = max_bit_size inv in
       if bits > 0 then Obs.observe "matrix.inverse_bits" bits
     | _ -> ());
    result

  let solve (m : t) (v : vec) : vec option =
    Obs.span ~attrs:[ ("n", Obs.Int (rows m)) ] "matrix.solve" @@ fun () ->
    let rhs = init (rows m) 1 (fun i _ -> v.(i)) in
    Option.map (fun sol -> Array.init (rows m) (fun i -> sol.(i).(0))) (gauss_jordan m rhs)

  let rank (m : t) =
    let a = copy m in
    let r = rows m and c = cols m in
    let rank = ref 0 in
    let pivot_row = ref 0 in
    for col = 0 to c - 1 do
      if !pivot_row < r then begin
        let pivot = ref (-1) in
        for i = !pivot_row to r - 1 do
          if !pivot = -1 && not (F.is_zero a.(i).(col)) then pivot := i
        done;
        if !pivot >= 0 then begin
          let tmp = a.(!pivot_row) in
          a.(!pivot_row) <- a.(!pivot);
          a.(!pivot) <- tmp;
          let inv_p = F.div F.one a.(!pivot_row).(col) in
          for i = !pivot_row + 1 to r - 1 do
            if not (F.is_zero a.(i).(col)) then begin
              let factor = F.mul a.(i).(col) inv_p in
              for j = col to c - 1 do
                a.(i).(j) <- F.sub a.(i).(j) (F.mul factor a.(!pivot_row).(j))
              done
            end
          done;
          incr rank;
          incr pivot_row
        end
      end
    done;
    !rank

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
