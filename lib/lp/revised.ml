(* Revised primal simplex over exact rationals; see revised.mli.

   Decision-for-decision replication of the dense tableau oracle
   (Lp_oracle.Simplex, test/oracle/):
   every quantity the oracle reads off the tableau (reduced costs,
   ratio columns, lexicographic scores) is recomputed here from the
   factorized basis inverse — exactly, in ℚ — so the branch structure
   (Dantzig scan order, strict '<' comparisons, candidate collection
   order, stall counter, Bland fallback) matches the oracle pivot for
   pivot on cold solves. *)

module Solver_error = Resilience.Solver_error
module Guard = Resilience.Guard
module R = Rat

type csc = {
  m : int;
  n : int;
  colp : int array;
  rowi : int array;
  vals : R.t array;
}

type result =
  | Optimal of R.t * R.t array
  | Failed of Solver_error.t

type warm_outcome = Cold | Warm_hit | Warm_miss

type pricing = Dantzig_lex | Bland

type stats = {
  pivots : int;
  refactorizations : int;
  warm : warm_outcome;
}

type solved = {
  res : result;
  duals : R.t array option;
  basis : int array option;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Eta chain (product-form inverse)                                    *)
(* ------------------------------------------------------------------ *)

(* One pivot's elementary transform: entering column u (in current
   basis coordinates) pivoting at [e_row]. [e_ri]/[e_vx] hold the
   off-pivot nonzeros of u; the pivot entry is kept apart. *)
type eta = { e_row : int; e_pivot : R.t; e_ri : int array; e_vx : R.t array }

(* analysis: domain-local — a state is allocated inside one [solve]
   call and never escapes it; each solve owns its state exclusively, so
   the mutable bookkeeping below needs no synchronization. *)
type state = {
  m : int;
  n : int;  (** structural columns *)
  n_art : int;
  cp : int array;
  ri : int array;
  vx : R.t array;  (** row-transformed values *)
  art_row : int array;  (** artificial [k] lives in row [art_row.(k)] *)
  row_mult : R.t array;  (** original row i × row_mult.(i) = stored row i *)
  basis : int array;
  in_basis : bool array;  (** length n + n_art *)
  xb : R.t array;  (** current basic values, = B⁻¹ b *)
  bt : R.t array;  (** transformed rhs *)
  w_col : R.t array;  (** FTRAN scratch *)
  mutable ch : eta array;
  mutable ch_len : int;
  mutable next_refactor : int;
  mutable refactors : int;
  mutable pivots_total : int;
}

let refactor_every = 16

let total_cols st = st.n + st.n_art

(* w := E⁻¹ w for one eta (forward direction). *)
let ftran_eta e (w : R.t array) =
  let wr = w.(e.e_row) in
  if not (R.is_zero wr) then begin
    let xr = R.div wr e.e_pivot in
    w.(e.e_row) <- xr;
    for t = 0 to Array.length e.e_ri - 1 do
      let i = e.e_ri.(t) in
      w.(i) <- R.sub w.(i) (R.mul e.e_vx.(t) xr)
    done
  end

(* y := y E⁻¹ for one eta (transpose direction). *)
let btran_eta e (y : R.t array) =
  let s = ref y.(e.e_row) in
  for t = 0 to Array.length e.e_ri - 1 do
    let yi = y.(e.e_ri.(t)) in
    if not (R.is_zero yi) then s := R.sub !s (R.mul yi e.e_vx.(t))
  done;
  y.(e.e_row) <- R.div !s e.e_pivot

let ftran st w =
  for k = 0 to st.ch_len - 1 do
    ftran_eta st.ch.(k) w
  done

let btran st y =
  for k = st.ch_len - 1 downto 0 do
    btran_eta st.ch.(k) y
  done

(* Load (transformed) column [j] — structural or artificial — into the
   dense scratch [w]. *)
let load_col st (w : R.t array) j =
  Array.fill w 0 st.m R.zero;
  if j < st.n then
    for t = st.cp.(j) to st.cp.(j + 1) - 1 do
      w.(st.ri.(t)) <- st.vx.(t)
    done
  else w.(st.art_row.(j - st.n)) <- R.one

(* Sparse dot of a dense row vector with (transformed) column [j]. *)
let dot_col st (rho : R.t array) j =
  let acc = ref R.zero in
  for t = st.cp.(j) to st.cp.(j + 1) - 1 do
    let x = rho.(st.ri.(t)) in
    if not (R.is_zero x) then acc := R.add !acc (R.mul x st.vx.(t))
  done;
  !acc

let push_eta_into (chain : eta array ref) (len : int ref) ~row (u : R.t array) m =
  let nz = ref 0 in
  for i = 0 to m - 1 do
    if i <> row && not (R.is_zero u.(i)) then incr nz
  done;
  let e_ri = Array.make !nz 0 and e_vx = Array.make !nz R.zero in
  let t = ref 0 in
  for i = 0 to m - 1 do
    if i <> row && not (R.is_zero u.(i)) then begin
      e_ri.(!t) <- i;
      e_vx.(!t) <- u.(i);
      incr t
    end
  done;
  let e = { e_row = row; e_pivot = u.(row); e_ri; e_vx } in
  if !len = Array.length !chain then begin
    let bigger = Array.make (Stdlib.max 16 (2 * Array.length !chain)) e in
    Array.blit !chain 0 bigger 0 !len;
    chain := bigger
  end;
  !chain.(!len) <- e;
  incr len

(* Rebuild the chain from scratch for the current basis: one eta per
   row, pivoting column [basis.(i)] at its own row [i] so the
   row-to-variable bookkeeping is untouched. Columns are processed
   sparsest-first (deferring any whose designated pivot entry is
   currently zero); if a full pass makes no progress the old chain —
   still a valid factorization — is kept and [false] returned. *)
let dummy_eta = { e_row = 0; e_pivot = R.one; e_ri = [||]; e_vx = [||] }

let refactor st =
  let chain = ref (Array.make (Stdlib.max 16 st.m) dummy_eta) in
  let len = ref 0 in
  let order = Array.init st.m (fun i -> i) in
  let col_nnz j = if j < st.n then st.cp.(j + 1) - st.cp.(j) else 1 in
  Array.sort
    (fun i1 i2 ->
      let c = Stdlib.compare (col_nnz st.basis.(i1)) (col_nnz st.basis.(i2)) in
      if c <> 0 then c else Stdlib.compare i1 i2)
    order;
  let placed = Array.make st.m false in
  let remaining = ref st.m in
  let w = Array.make st.m R.zero in
  let progress = ref true in
  while !remaining > 0 && !progress do
    progress := false;
    Array.iter
      (fun i ->
        if not placed.(i) then begin
          load_col st w st.basis.(i);
          for k = 0 to !len - 1 do
            ftran_eta !chain.(k) w
          done;
          if not (R.is_zero w.(i)) then begin
            push_eta_into chain len ~row:i w st.m;
            placed.(i) <- true;
            Stdlib.decr remaining;
            progress := true
          end
        end)
      order
  done;
  if !remaining = 0 then begin
    st.ch <- !chain;
    st.ch_len <- !len;
    st.next_refactor <- !len + refactor_every;
    st.refactors <- st.refactors + 1;
    Obs.incr "lp.refactor";
    true
  end
  else begin
    (* Singular under the fixed row designation (possible for warm
       bases); push the retry horizon out so we do not thrash. *)
    st.next_refactor <- st.ch_len + refactor_every;
    false
  end

(* Execute a pivot: entering [col] with FTRAN'd column [u], leaving row
   [row]. Obs accounting matches the oracle's pivot exactly. *)
let apply_pivot st ~row ~col (u : R.t array) =
  assert (not (R.is_zero u.(row)));
  if Obs.enabled () then begin
    Obs.incr "simplex.pivots";
    let bits = R.bit_size u.(row) in
    if bits > 0 then Obs.observe "simplex.pivot_bits" bits
  end;
  st.pivots_total <- st.pivots_total + 1;
  let theta = R.div st.xb.(row) u.(row) in
  if not (R.is_zero theta) then
    for i = 0 to st.m - 1 do
      if i <> row && not (R.is_zero u.(i)) then
        st.xb.(i) <- R.sub st.xb.(i) (R.mul u.(i) theta)
    done;
  st.xb.(row) <- theta;
  let chain = ref st.ch and len = ref st.ch_len in
  push_eta_into chain len ~row u st.m;
  st.ch <- !chain;
  st.ch_len <- !len;
  st.in_basis.(st.basis.(row)) <- false;
  st.in_basis.(col) <- true;
  st.basis.(row) <- col;
  if st.ch_len >= st.next_refactor then ignore (refactor st)

(* y := cost_B B⁻¹ for the current basis. *)
let compute_y st cost_of =
  let y = Array.init st.m (fun i -> cost_of st.basis.(i)) in
  btran st y;
  y

(* Row i of B⁻¹ (for lexicographic scores and artificial drive-out). *)
let binv_row st i =
  let rho = Array.make st.m R.zero in
  rho.(i) <- R.one;
  btran st rho;
  rho

(* The oracle's tableau entry t.(i).(j), reconstructed: j ranges over
   structural columns, artificial columns, then the rhs (j = total). *)
let row_entry st rho i j =
  if j < st.n then dot_col st rho j
  else if j < total_cols st then rho.(st.art_row.(j - st.n))
  else st.xb.(i)

(* Degenerate pivots in a row before the Dantzig rule gives way to
   Bland's for the rest of the phase; the oracle reads this value, so
   both engines fall back at the same tie. *)
let stall_threshold = 600

(* The optimize loop, mirroring the oracle's optimize structure.
   [cost_of] gives the active objective coefficient per column. *)
let optimize ~pricing ~guard ~site st ~allowed_n ~cost_of =
  let use_bland = ref (pricing = Bland) in
  let stall = ref 0 in
  let u = st.w_col in
  let do_pivot ~row ~col =
    Guard.count_pivot guard;
    if Guard.tracks_bits guard then Guard.note_bits guard (R.bit_size u.(row));
    apply_pivot st ~row ~col u
  in
  let rec loop () =
    match Guard.check guard ~site with
    | Some ex -> `Exhausted ex
    | None -> loop_body ()
  and loop_body () =
    let y = compute_y st cost_of in
    (* Reduced cost c_j − y·a_j; exactly the oracle's objective-row
       entry, which is 0 for basic columns (skipped either way). *)
    let reduced j =
      if j < st.n then R.sub (cost_of j) (dot_col st y j)
      else R.sub (cost_of j) (y.(st.art_row.(j - st.n)))
    in
    let entering = ref (-1) in
    if !use_bland then begin
      try
        for j = 0 to allowed_n - 1 do
          if (not st.in_basis.(j)) && R.sign (reduced j) < 0 then begin
            entering := j;
            raise Exit
          end
        done
      with Exit -> ()
    end
    else begin
      let best = ref R.zero in
      for j = 0 to allowed_n - 1 do
        if not st.in_basis.(j) then begin
          let d = reduced j in
          if R.sign d < 0 && R.compare d !best < 0 then begin
            best := d;
            entering := j
          end
        end
      done
    end;
    if !entering < 0 then `Optimal
    else begin
      let col = !entering in
      load_col st u col;
      ftran st u;
      (* Primary ratio test: same candidate collection order as the
         oracle (rows scanned m-1 downto 0, list kept ascending). *)
      let candidates = ref [] in
      let best_ratio = ref R.zero in
      for i = st.m - 1 downto 0 do
        if R.sign u.(i) > 0 then begin
          let ratio = R.div st.xb.(i) u.(i) in
          match !candidates with
          | [] ->
            candidates := [ i ];
            best_ratio := ratio
          | _ ->
            let c = R.compare ratio !best_ratio in
            if c < 0 then begin
              candidates := [ i ];
              best_ratio := ratio
            end
            else if c = 0 then candidates := i :: !candidates
        end
      done;
      (if R.is_zero !best_ratio then begin
         incr stall;
         Obs.incr "simplex.degenerate_ties";
         if !stall > stall_threshold && not !use_bland then begin
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
        let row =
          List.fold_left
            (fun acc i -> if st.basis.(i) < st.basis.(acc) then i else acc)
            (List.hd several) several
        in
        do_pivot ~row ~col;
        loop ()
      | several ->
        (* Lexicographic tie-break over reconstructed tableau rows:
           rho_i = e_i B⁻¹ is computed once per candidate per tie
           event, then each score is one sparse dot. *)
        let rhos = List.map (fun i -> (i, binv_row st i)) several in
        let score i j =
          let rho = List.assq i rhos in
          R.div (row_entry st rho i j) u.(i)
        in
        let rec narrow cands j =
          match cands with
          | [ only ] -> only
          | _ when j > total_cols st -> List.hd cands (* unreachable *)
          | _ ->
            Obs.incr "simplex.narrow_steps";
            let scored = List.map (fun i -> (i, score i j)) cands in
            let min_score =
              List.fold_left
                (fun acc (_, s) ->
                  match acc with
                  | None -> Some s
                  | Some m -> if R.compare s m < 0 then Some s else acc)
                None scored
            in
            let min_score = Option.get min_score in
            let cands' =
              List.filter_map
                (fun (i, s) -> if R.compare s min_score = 0 then Some i else None)
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

(* ------------------------------------------------------------------ *)
(* Solve                                                               *)
(* ------------------------------------------------------------------ *)

let phase2_finish ~pricing ~(c : R.t array) guard st warm_outcome =
  let cost_of j = if j < st.n then c.(j) else R.zero in
  let stats () =
    { pivots = st.pivots_total; refactorizations = st.refactors; warm = warm_outcome }
  in
  let phase2_result =
    Obs.span "simplex.phase2" @@ fun () ->
    let pivots_before = Obs.counter_value "simplex.pivots" in
    let r = optimize ~pricing ~guard ~site:"simplex.phase2" st ~allowed_n:st.n ~cost_of in
    Obs.incr ~by:(Obs.counter_value "simplex.pivots" - pivots_before) "simplex.phase2.pivots";
    r
  in
  match phase2_result with
  | `Unbounded -> { res = Failed Solver_error.Unbounded; duals = None; basis = None; stats = stats () }
  | `Exhausted ex ->
    { res = Failed (Solver_error.Exhausted ex); duals = None; basis = None; stats = stats () }
  | `Optimal ->
    let x = Array.make st.n R.zero in
    let obj = ref R.zero in
    let clean = ref true in
    for i = 0 to st.m - 1 do
      let j = st.basis.(i) in
      if j < st.n then begin
        x.(j) <- st.xb.(i);
        if not (R.is_zero x.(j)) then obj := R.add !obj (R.mul c.(j) x.(j))
      end
      else clean := false
    done;
    (* Duals: the initial basis columns of the transformed system are
       unit vectors e_i with zero phase-2 cost, so the oracle's
       objrow-based extraction reduces to row_mult_i · y_i. *)
    let y = compute_y st cost_of in
    let duals = Array.init st.m (fun i -> R.mul st.row_mult.(i) y.(i)) in
    {
      res = Optimal (!obj, x);
      duals = Some duals;
      basis = (if !clean then Some (Array.copy st.basis) else None);
      stats = stats ();
    }

let fresh_state ~m ~n ~n_art ~cp ~ri ~vx ~art_row ~row_mult ~basis ~bt =
  let in_basis = Array.make (n + n_art) false in
  Array.iter (fun j -> in_basis.(j) <- true) basis;
  {
    m;
    n;
    n_art;
    cp;
    ri;
    vx;
    art_row;
    row_mult;
    basis;
    in_basis;
    xb = Array.copy bt;
    bt;
    w_col = Array.make (Stdlib.max 1 m) R.zero;
    ch = [||];
    ch_len = 0;
    next_refactor = refactor_every;
    refactors = 0;
    pivots_total = 0;
  }

let solve ?(pricing = Dantzig_lex) ?(crash = true) ?budget ?warm
    ~(a : csc) ~(b : R.t array) ~(c : R.t array) () : solved =
  let guard = Guard.make budget in
  let m = a.m and n = a.n in
  if Array.length b <> m then invalid_arg "Revised: |b| <> rows A";
  if Array.length c <> n then invalid_arg "Revised: |c| <> cols A";
  Obs.span ~attrs:[ ("rows", Obs.Int m); ("cols", Obs.Int n) ] "simplex.solve" @@ fun () ->
  (* ---- Warm attempt: no row transforms needed — feasibility of the
     seeded basis is checked directly against the untransformed data. *)
  let warm_attempt () =
    match warm with
    | Some wb when Array.length wb = m && Array.for_all (fun j -> j >= 0 && j < n) wb ->
      let distinct =
        let seen = Array.make n false in
        Array.for_all
          (fun j ->
            if seen.(j) then false
            else begin
              seen.(j) <- true;
              true
            end)
          wb
      in
      if not distinct then None
      else begin
        let st =
          fresh_state ~m ~n ~n_art:0 ~cp:a.colp ~ri:a.rowi ~vx:a.vals ~art_row:[||]
            ~row_mult:(Array.make m R.one) ~basis:(Array.copy wb) ~bt:(Array.copy b)
        in
        if not (refactor st) then None
        else begin
          (* Basis refactorized: is it primal-feasible for the new b? *)
          let x = Array.copy st.bt in
          ftran st x;
          if Array.for_all (fun v -> R.sign v >= 0) x then begin
            Array.blit x 0 st.xb 0 m;
            Some st
          end
          else None
        end
      end
    | _ -> None
  in
  match warm_attempt () with
  | Some st ->
    Obs.incr "lp.warm.hits";
    phase2_finish ~pricing ~c guard st Warm_hit
  | None ->
    let warm_outcome =
      match warm with
      | Some _ ->
        Obs.incr "lp.warm.misses";
        Warm_miss
      | None -> Cold
    in
    (* ---- Cold path: replicate the oracle's transforms in order. *)
    (* Sign-normalize rows so rhs >= 0. *)
    let row_mult = Array.make m R.one in
    let bt = Array.copy b in
    for i = 0 to m - 1 do
      if R.sign bt.(i) < 0 then begin
        bt.(i) <- R.neg bt.(i);
        row_mult.(i) <- R.neg row_mult.(i)
      end
    done;
    (* Crash basis: singleton zero-cost columns, scanned in the
       oracle's column order with the same adoption rules. *)
    let basis_of_row = Array.make m (-1) in
    for j = 0 to n - 1 do
      if crash && a.colp.(j + 1) - a.colp.(j) = 1 && R.is_zero c.(j) then begin
        let t = a.colp.(j) in
        let i = a.rowi.(t) in
        if basis_of_row.(i) = -1 then begin
          let v = R.mul row_mult.(i) a.vals.(t) in
          if R.sign v > 0 then basis_of_row.(i) <- j
          else if R.sign v < 0 && R.is_zero bt.(i) then begin
            row_mult.(i) <- R.neg row_mult.(i);
            basis_of_row.(i) <- j
          end
        end
      end
    done;
    (* Artificials for uncovered rows, ascending. *)
    let art_rows = ref [] in
    for i = m - 1 downto 0 do
      if basis_of_row.(i) = -1 then art_rows := i :: !art_rows
    done;
    let art_row = Array.of_list !art_rows in
    let n_art = Array.length art_row in
    Array.iteri (fun k i -> basis_of_row.(i) <- n + k) art_row;
    (* Normalize crash rows so the basic entry is exactly 1. *)
    for i = 0 to m - 1 do
      let j = basis_of_row.(i) in
      if j < n then begin
        let t = a.colp.(j) in
        let entry = R.mul row_mult.(i) a.vals.(t) in
        if not (R.is_one entry) then begin
          let inv = R.div R.one entry in
          row_mult.(i) <- R.mul row_mult.(i) inv;
          bt.(i) <- R.mul bt.(i) inv
        end
      end
    done;
    (* Materialize the transformed value array. *)
    let vx =
      Array.mapi
        (fun t v ->
          let mult = row_mult.(a.rowi.(t)) in
          if R.is_one mult then v else R.mul mult v)
        a.vals
    in
    let st =
      fresh_state ~m ~n ~n_art ~cp:a.colp ~ri:a.rowi ~vx ~art_row ~row_mult
        ~basis:basis_of_row ~bt
    in
    if Obs.enabled () then begin
      let total = n + n_art in
      Obs.observe "simplex.rows" m;
      Obs.observe "simplex.cols" total;
      let nz = ref (Array.length a.vals + n_art) in
      Array.iter (fun v -> if not (R.is_zero v) then Stdlib.incr nz) bt;
      let cells = m * (total + 1) in
      if cells > 0 then Obs.observe "simplex.density_permille" (!nz * 1000 / cells)
    end;
    let stats () =
      { pivots = st.pivots_total; refactorizations = st.refactors; warm = warm_outcome }
    in
    (* Phase 1. *)
    let phase1_result =
      if n_art = 0 then `Value R.zero
      else
        Obs.span "simplex.phase1" @@ fun () ->
        let pivots_before = Obs.counter_value "simplex.pivots" in
        let cost_of j = if j >= n then R.one else R.zero in
        let r =
          match
            optimize ~pricing ~guard ~site:"simplex.phase1" st ~allowed_n:(n + n_art)
              ~cost_of
          with
          | `Unbounded ->
            Solver_error.fail ~context:"simplex.phase1" Solver_error.Unbounded
          | `Exhausted ex -> `Exhausted ex
          | `Optimal ->
            let v = ref R.zero in
            for i = 0 to m - 1 do
              if st.basis.(i) >= n then v := R.add !v st.xb.(i)
            done;
            `Value !v
        in
        Obs.incr ~by:(Obs.counter_value "simplex.pivots" - pivots_before) "simplex.phase1.pivots";
        r
    in
    (match phase1_result with
    | `Exhausted ex ->
      { res = Failed (Solver_error.Exhausted ex); duals = None; basis = None; stats = stats () }
    | `Value v when R.sign v > 0 ->
      { res = Failed Solver_error.Infeasible; duals = None; basis = None; stats = stats () }
    | `Value _ ->
      (* Drive remaining artificials out where a structural pivot
         exists (same row order and column choice as the oracle). *)
      for i = 0 to m - 1 do
        if st.basis.(i) >= n then begin
          let rho = binv_row st i in
          let found = ref (-1) in
          let j = ref 0 in
          while !found < 0 && !j < n do
            if not (R.is_zero (dot_col st rho !j)) then found := !j;
            incr j
          done;
          if !found >= 0 then begin
            let u = st.w_col in
            load_col st u !found;
            ftran st u;
            apply_pivot st ~row:i ~col:!found u
          end
        end
      done;
      phase2_finish ~pricing ~c guard st warm_outcome)
