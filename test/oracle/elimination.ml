(* General Gaussian elimination over a field: the reference the closed
   forms in lib/ are checked against (Lemma 1's determinant, the
   tridiagonal G(n,α)⁻¹) and the float inverse the numeric ablation
   measures exactness with.

   Partial pivoting picks the largest |pivot| (meaningful for floats,
   harmless for exact fields). *)

module Make (F : Linalg.Field.S) = struct
  include Linalg.Matrix.Make (F)

  let swap (x : t) i j =
    let tmp = x.(i) in
    x.(i) <- x.(j);
    x.(j) <- tmp

  (* Gauss-Jordan on [m | rhs]: the determinant of [m], and the reduced
     rhs [m⁻¹·rhs] unless [m] is singular. *)
  let eliminate (m : t) (rhs : t) =
    let n = rows m in
    if n <> cols m then invalid_arg "Elimination: not square";
    if rows rhs <> n then invalid_arg "Elimination: rhs shape";
    let a = copy m and b = copy rhs in
    let rec go col det =
      if col = n then (det, Some b)
      else begin
        let pivot = ref (-1) and best = ref F.zero in
        for r = col to n - 1 do
          let v = F.abs a.(r).(col) in
          if not (F.is_zero v) && (!pivot = -1 || F.compare v !best > 0) then begin
            pivot := r;
            best := v
          end
        done;
        if !pivot = -1 then (F.zero, None)
        else begin
          let det = if !pivot = col then det else F.neg det in
          swap a col !pivot;
          swap b col !pivot;
          let p = a.(col).(col) in
          let inv_p = F.div F.one p in
          a.(col) <- Array.map (F.mul inv_p) a.(col);
          b.(col) <- Array.map (F.mul inv_p) b.(col);
          for r = 0 to n - 1 do
            let f = a.(r).(col) in
            if r <> col && not (F.is_zero f) then begin
              a.(r) <- Array.map2 (fun x y -> F.sub x (F.mul f y)) a.(r) a.(col);
              b.(r) <- Array.map2 (fun x y -> F.sub x (F.mul f y)) b.(r) b.(col)
            end
          done;
          go (col + 1) (F.mul det p)
        end
      end
    in
    go 0 F.one

  let determinant m = fst (eliminate m (make (rows m) 0 F.zero))
  let gauss_jordan m rhs = snd (eliminate m rhs)
  let inverse m = gauss_jordan m (identity (rows m))

  let solve m (v : vec) =
    Option.map (Array.map (fun row -> row.(0))) (gauss_jordan m (Array.map (fun x -> [| x |]) v))

  (* Forward elimination taking the first non-zero pivot; works on
     rectangular matrices. *)
  let rank (m : t) =
    let a = copy m in
    let r = rows m in
    let rank = ref 0 in
    for col = 0 to cols m - 1 do
      match List.find_opt (fun i -> not (F.is_zero a.(i).(col))) (List.init (r - !rank) (( + ) !rank)) with
      | None -> ()
      | Some i ->
        swap a !rank i;
        let inv_p = F.div F.one a.(!rank).(col) in
        for i = !rank + 1 to r - 1 do
          if not (F.is_zero a.(i).(col)) then begin
            let f = F.mul a.(i).(col) inv_p in
            a.(i) <- Array.map2 (fun x y -> F.sub x (F.mul f y)) a.(i) a.(!rank)
          end
        done;
        incr rank
    done;
    !rank
end
