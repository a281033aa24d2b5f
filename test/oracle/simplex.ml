(** Two-phase primal simplex on the dense tableau, with Bland's
    anti-cycling rule: the test oracle for [Lp.Revised].

    Solves the standard-form problem

    {v min c.x  subject to  A x = b,  x >= 0 v}

    The functor form gives both an exact solver (over
    {!Linalg.Field.Rational}) and a floating-point mirror used for the
    numeric ablation. *)

module Make (F : Linalg.Field.S) = struct
  module Solver_error = Resilience.Solver_error
  module Guard = Resilience.Guard

  type result =
    | Optimal of F.t * F.t array  (** objective value, primal solution *)
    | Failed of Solver_error.t

  (* The tableau has [m] constraint rows and one objective row (index
     [m]).  Columns: [0 .. total_cols-1] are variables, column
     [total_cols] is the right-hand side.  [basis.(i)] is the variable
     basic in row [i].  The objective row stores reduced costs; its rhs
     cell holds the negated objective value. *)

  type tableau = {
    t : F.t array array;
    basis : int array;
    m : int;  (** constraint rows *)
    total_cols : int;  (** variable columns (rhs excluded) *)
  }

  let rhs_col tab = tab.total_cols

  let pivot tab ~row ~col =
    let a = tab.t in
    let p = a.(row).(col) in
    assert (not (F.is_zero p));
    if Obs.enabled () then begin
      Obs.incr "simplex.pivots";
      let bits = F.bit_size p in
      if bits > 0 then Obs.observe "simplex.pivot_bits" bits
    end;
    let inv_p = F.div F.one p in
    for j = 0 to tab.total_cols do
      if not (F.is_zero a.(row).(j)) then a.(row).(j) <- F.mul a.(row).(j) inv_p
    done;
    (* Only touch the nonzero columns of the pivot row — the tableau is
       sparse in practice (identity blocks from slacks/artificials). *)
    let nonzero = ref [] in
    for j = tab.total_cols downto 0 do
      if not (F.is_zero a.(row).(j)) then nonzero := j :: !nonzero
    done;
    let nonzero = !nonzero in
    for i = 0 to tab.m do
      if i <> row && not (F.is_zero a.(i).(col)) then begin
        let factor = a.(i).(col) in
        List.iter
          (fun j -> a.(i).(j) <- F.sub a.(i).(j) (F.mul factor a.(row).(j)))
          nonzero
      end
    done;
    tab.basis.(row) <- col

  (* Pricing: Dantzig's rule (most negative reduced cost).
     Anti-cycling: lexicographic ratio test — among the rows achieving
     the minimum primary ratio, compare the full rows scaled by the
     pivot entry, lexicographically. Since the initial tableau carries
     an identity block (artificials), rows stay lexicographically
     positive and no basis repeats, so termination is guaranteed with
     any pricing rule — without Bland's long simplex paths.
     [allowed] filters candidate entering columns (used to freeze
     artificials in phase 2). *)
  type pricing = Lp.Revised.pricing = Dantzig_lex | Bland

  let optimize ?(pricing = Dantzig_lex) ~guard ~site tab ~allowed =
    let a = tab.t in
    (* Backstop: should the lexicographic tie-break ever fail to break
       a degenerate stall (its positivity precondition is not enforced
       on crash bases), fall back permanently to Bland's rule, which
       terminates unconditionally. Callers may also force Bland's rule
       outright (the PRICING ablation bench does). *)
    let use_bland = ref (pricing = Bland) in
    let stall = ref 0 in
    let do_pivot ~row ~col =
      Guard.count_pivot guard;
      if Guard.tracks_bits guard then Guard.note_bits guard (F.bit_size a.(row).(col));
      pivot tab ~row ~col
    in
    let rec loop () =
      match Guard.check guard ~site with
      | Some ex -> `Exhausted ex
      | None -> loop_body ()
    and loop_body () =
      let entering = ref (-1) in
      if !use_bland then begin
        try
          for j = 0 to tab.total_cols - 1 do
            if allowed j && F.sign a.(tab.m).(j) < 0 then begin
              entering := j;
              raise Exit
            end
          done
        with Exit -> ()
      end
      else begin
        let best = ref F.zero in
        for j = 0 to tab.total_cols - 1 do
          if allowed j && F.sign a.(tab.m).(j) < 0 && F.compare a.(tab.m).(j) !best < 0 then begin
            best := a.(tab.m).(j);
            entering := j
          end
        done
      end;
      if !entering < 0 then `Optimal
      else begin
        let col = !entering in
        (* Primary ratio test. *)
        let candidates = ref [] in
        let best_ratio = ref F.zero in
        for i = tab.m - 1 downto 0 do
          if F.sign a.(i).(col) > 0 then begin
            let ratio = F.div a.(i).(rhs_col tab) a.(i).(col) in
            match !candidates with
            | [] ->
              candidates := [ i ];
              best_ratio := ratio
            | _ ->
              let c = F.compare ratio !best_ratio in
              if c < 0 then begin
                candidates := [ i ];
                best_ratio := ratio
              end
              else if c = 0 then candidates := i :: !candidates
          end
        done;
        (if F.is_zero !best_ratio then begin
           incr stall;
           Obs.incr "simplex.degenerate_ties";
           if !stall > Lp.Revised.stall_threshold && not !use_bland then begin
             Obs.incr "simplex.bland_fallbacks";
             use_bland := true
           end
         end
         else stall := 0);
        match !candidates with
        | [] -> `Unbounded
        | [ only ] ->
          do_pivot ~row:only ~col;
          loop ()
        | several when !use_bland ->
          (* Bland's leaving rule: smallest basic-variable index. *)
          let row =
            List.fold_left
              (fun acc i -> if tab.basis.(i) < tab.basis.(acc) then i else acc)
              (List.hd several) several
          in
          do_pivot ~row ~col;
          loop ()
        | several ->
          (* Lexicographic tie-break: compare rows divided by their
             pivot-column entry, column by column, until one row is
             strictly minimal. Distinct basic rows are linearly
             independent, so this always resolves. *)
          let rec narrow cands j =
            match cands with
            | [ only ] -> only
            | _ when j > tab.total_cols -> List.hd cands (* unreachable *)
            | _ ->
              Obs.incr "simplex.narrow_steps";
              let scored =
                List.map (fun i -> (i, F.div a.(i).(j) a.(i).(col))) cands
              in
              let min_score =
                List.fold_left
                  (fun acc (_, s) -> match acc with None -> Some s | Some m -> if F.compare s m < 0 then Some s else acc)
                  None scored
              in
              let min_score = Option.get min_score in
              let cands' =
                List.filter_map
                  (fun (i, s) -> if F.compare s min_score = 0 then Some i else None)
                  scored
              in
              narrow cands' (j + 1)
          in
          let row = narrow several 0 in
          do_pivot ~row ~col;
          loop ()
      end
    in
    loop ()

  (* Recompute the objective row for cost vector [cost] (length
     [total_cols]) given the current basis: the tableau rows already
     express basic variables in terms of nonbasic ones. *)
  let install_objective tab (cost : F.t array) =
    let a = tab.t in
    for j = 0 to tab.total_cols do
      a.(tab.m).(j) <- (if j < tab.total_cols then cost.(j) else F.zero)
    done;
    for i = 0 to tab.m - 1 do
      let cb = cost.(tab.basis.(i)) in
      if not (F.is_zero cb) then
        for j = 0 to tab.total_cols do
          a.(tab.m).(j) <- F.sub a.(tab.m).(j) (F.mul cb a.(i).(j))
        done
    done

  let solve_standard_internal ?pricing ?(crash = true) ?budget ~duals_out
      ~(a : F.t array array) ~(b : F.t array) ~(c : F.t array) () : result =
    let guard = Guard.make budget in
    let m = Array.length a in
    let n = Array.length c in
    Array.iter (fun row -> if Array.length row <> n then invalid_arg "Simplex: ragged A") a;
    if Array.length b <> m then invalid_arg "Simplex: |b| <> rows A";
    Obs.span ~attrs:[ ("rows", Obs.Int m); ("cols", Obs.Int n) ] "simplex.solve" @@ fun () ->
    (* Sign-normalize rows so rhs >= 0 (rows with rhs 0 are flipped so
       that any slack-like singleton column comes out positive — that
       lets the crash step below adopt it as basic). *)
    let rows = Array.map Array.copy a and rhs = Array.copy b in
    (* row_scale.(i) is the multiplier taking the ORIGINAL row i to the
       transformed row the tableau holds; needed to map dual values
       back to the caller's orientation. *)
    let row_scale = Array.make m F.one in
    for i = 0 to m - 1 do
      if F.sign rhs.(i) < 0 then begin
        for j = 0 to n - 1 do
          rows.(i).(j) <- F.neg rows.(i).(j)
        done;
        rhs.(i) <- F.neg rhs.(i);
        row_scale.(i) <- F.neg row_scale.(i)
      end
    done;
    (* Crash basis: a column appearing in exactly one row, positively,
       with zero objective coefficient, can start basic in that row
       when the implied value b_i / a_ij is feasible (>= 0, automatic)
       — this covers the slack columns the modelling layer emits and
       avoids one artificial per inequality. For rhs-0 rows a negative
       singleton works too (flip the row). *)
    let basis_of_row = Array.make m (-1) in
    let row_count = Array.make n 0 and row_home = Array.make n (-1) in
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        if not (F.is_zero rows.(i).(j)) then begin
          row_count.(j) <- row_count.(j) + 1;
          row_home.(j) <- i
        end
      done
    done;
    for j = 0 to n - 1 do
      if crash && row_count.(j) = 1 && F.is_zero c.(j) then begin
        let i = row_home.(j) in
        if basis_of_row.(i) = -1 then begin
          let v = rows.(i).(j) in
          if F.sign v > 0 then basis_of_row.(i) <- j
          else if F.sign v < 0 && F.is_zero rhs.(i) then begin
            for k = 0 to n - 1 do
              rows.(i).(k) <- F.neg rows.(i).(k)
            done;
            row_scale.(i) <- F.neg row_scale.(i);
            basis_of_row.(i) <- j
          end
        end
      end
    done;
    (* Artificials only for rows that found no crash column. *)
    let needs_artificial = ref [] in
    for i = m - 1 downto 0 do
      if basis_of_row.(i) = -1 then needs_artificial := i :: !needs_artificial
    done;
    let needs_artificial = !needs_artificial in
    let n_art = List.length needs_artificial in
    let total = n + n_art in
    let t = Array.make_matrix (m + 1) (total + 1) F.zero in
    for i = 0 to m - 1 do
      Array.blit rows.(i) 0 t.(i) 0 n;
      t.(i).(total) <- rhs.(i)
    done;
    List.iteri
      (fun k i ->
        t.(i).(n + k) <- F.one;
        basis_of_row.(i) <- n + k)
      needs_artificial;
    (* Normalize crash rows so the basic entry is exactly 1. *)
    for i = 0 to m - 1 do
      let j = basis_of_row.(i) in
      if j < n && not (F.equal t.(i).(j) F.one) then begin
        let inv = F.div F.one t.(i).(j) in
        for k = 0 to total do
          if not (F.is_zero t.(i).(k)) then t.(i).(k) <- F.mul t.(i).(k) inv
        done;
        row_scale.(i) <- F.mul row_scale.(i) inv
      end
    done;
    let initial_col_of_row = Array.copy basis_of_row in
    let tab = { t; basis = basis_of_row; m; total_cols = total } in
    if Obs.enabled () then begin
      Obs.observe "simplex.rows" m;
      Obs.observe "simplex.cols" total;
      let nz = ref 0 in
      for i = 0 to m - 1 do
        for j = 0 to total do
          if not (F.is_zero t.(i).(j)) then Stdlib.incr nz
        done
      done;
      let cells = m * (total + 1) in
      if cells > 0 then Obs.observe "simplex.density_permille" (!nz * 1000 / cells)
    end;
    (* Phase 1: minimize the sum of artificials (skipped when the crash
       basis covered every row). *)
    let phase1_result =
      if n_art = 0 then `Value F.zero
      else
        Obs.span "simplex.phase1" @@ fun () ->
        let pivots_before = Obs.counter_value "simplex.pivots" in
        let phase1_cost = Array.init total (fun j -> if j >= n then F.one else F.zero) in
        install_objective tab phase1_cost;
        let r =
          match optimize ?pricing ~guard ~site:"simplex.phase1" tab ~allowed:(fun _ -> true) with
          | `Unbounded ->
            (* phase-1 objective is bounded below by 0 *)
            Solver_error.fail ~context:"simplex.phase1" Solver_error.Unbounded
          | `Exhausted ex -> `Exhausted ex
          | `Optimal -> `Value (F.neg tab.t.(m).(rhs_col tab))
        in
        Obs.incr ~by:(Obs.counter_value "simplex.pivots" - pivots_before) "simplex.phase1.pivots";
        r
    in
    match phase1_result with
    | `Exhausted ex -> Failed (Solver_error.Exhausted ex)
    | `Value phase1_value when F.sign phase1_value > 0 -> Failed Solver_error.Infeasible
    | `Value _ -> begin
      (* Drive any remaining artificials out of the basis. A basic
         artificial at value 0 either pivots on some structural column
         or sits in a redundant row (all-zero structural part), which
         we neutralize by leaving it basic and zero: artificials are
         not [allowed] in phase 2, so it stays at 0. *)
      for i = 0 to m - 1 do
        if tab.basis.(i) >= n then begin
          let found = ref (-1) in
          for j = 0 to n - 1 do
            if !found < 0 && not (F.is_zero tab.t.(i).(j)) then found := j
          done;
          if !found >= 0 then pivot tab ~row:i ~col:!found
        end
      done;
      (* Phase 2. *)
      let phase2_cost = Array.init total (fun j -> if j < n then c.(j) else F.zero) in
      install_objective tab phase2_cost;
      let phase2_result =
        Obs.span "simplex.phase2" @@ fun () ->
        let pivots_before = Obs.counter_value "simplex.pivots" in
        let r = optimize ?pricing ~guard ~site:"simplex.phase2" tab ~allowed:(fun j -> j < n) in
        Obs.incr ~by:(Obs.counter_value "simplex.pivots" - pivots_before) "simplex.phase2.pivots";
        r
      in
      match phase2_result with
      | `Unbounded -> Failed Solver_error.Unbounded
      | `Exhausted ex -> Failed (Solver_error.Exhausted ex)
      | `Optimal ->
        if Obs.enabled () then begin
          let max_bits = ref 0 in
          for i = 0 to m do
            for j = 0 to total do
              let bits = F.bit_size tab.t.(i).(j) in
              if bits > !max_bits then max_bits := bits
            done
          done;
          if !max_bits > 0 then Obs.observe "simplex.final_bits" !max_bits
        end;
        let x = Array.make n F.zero in
        for i = 0 to m - 1 do
          if tab.basis.(i) < n then x.(tab.basis.(i)) <- tab.t.(i).(rhs_col tab)
        done;
        let obj = F.neg tab.t.(m).(rhs_col tab) in
        (* Dual values: for row i's initial unit column j (cost 0 in
           phase 2 — crash columns require zero cost, artificials get
           zero cost), the final reduced cost is c_j − y'·e_i = −y'_i,
           so y'_i = −objrow[j]; map back through the row transform. *)
        duals_out :=
          Some
            (Array.init m (fun i ->
                 let j = initial_col_of_row.(i) in
                 F.mul row_scale.(i) (F.neg tab.t.(m).(j))));
        Optimal (obj, x)
    end

  let solve_standard ?pricing ?crash ?budget ~a ~b ~c () : result =
    let duals_out = ref None in
    solve_standard_internal ?pricing ?crash ?budget ~duals_out ~a ~b ~c ()

  let solve_standard_with_duals ?pricing ?crash ?budget ~a ~b ~c () =
    let duals_out = ref None in
    let result = solve_standard_internal ?pricing ?crash ?budget ~duals_out ~a ~b ~c () in
    (result, !duals_out)

  (* Sanity checks over a claimed solution, used by tests and by the
     paranoid mode of the facade. *)
  let check_feasible ~(a : F.t array array) ~(b : F.t array) (x : F.t array) =
    let m = Array.length a in
    let ok = ref (Array.for_all (fun v -> F.sign v >= 0) x) in
    for i = 0 to m - 1 do
      let acc = ref F.zero in
      for j = 0 to Array.length x - 1 do
        acc := F.add !acc (F.mul a.(i).(j) x.(j))
      done;
      if not (F.is_zero (F.sub !acc b.(i))) then ok := false
    done;
    !ok
end

module Exact = Make (Linalg.Field.Rational)
module Floating = Make (Float_field)
