(** Linear-programming front end.

    A small modelling layer (named variables, linear-expression DSL,
    [<=]/[>=]/[=] constraints, min/max objective) over the exact
    revised simplex in {!Revised}. All coefficients are exact
    rationals; see DESIGN.md for why exactness matters here. *)

module Revised = Revised
module Budget = Resilience.Budget
module Solver_error = Resilience.Solver_error

type var = int

type linexpr = { terms : (var * Rat.t) list; const : Rat.t }

module Expr = struct
  type t = linexpr

  let const c = { terms = []; const = c }
  let zero = const Rat.zero
  let var v = { terms = [ (v, Rat.one) ]; const = Rat.zero }
  let term c v = { terms = [ (v, c) ]; const = Rat.zero }

  let add a b = { terms = a.terms @ b.terms; const = Rat.add a.const b.const }

  let scale k a =
    { terms = List.map (fun (v, c) -> (v, Rat.mul k c)) a.terms; const = Rat.mul k a.const }

  let neg = scale Rat.minus_one
  let sub a b = add a (neg b)
  let sum xs = List.fold_left add zero xs
  let add_const a c = { a with const = Rat.add a.const c }

  (* Collapse duplicate variables; drop zero coefficients. *)
  (* analysis: order-insensitive — coefficient addition commutes and
     the resulting terms are sorted by variable before use. *)
  let normalize a =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (v, c) ->
        let cur = Option.value ~default:Rat.zero (Hashtbl.find_opt tbl v) in
        Hashtbl.replace tbl v (Rat.add cur c))
      a.terms;
    let terms =
      Hashtbl.fold (fun v c acc -> if Rat.is_zero c then acc else (v, c) :: acc) tbl []
      |> List.sort (fun (v1, _) (v2, _) -> compare v1 v2)
    in
    { terms; const = a.const }

  let eval (values : Rat.t array) a =
    List.fold_left (fun acc (v, c) -> Rat.add acc (Rat.mul c values.(v))) a.const a.terms
end

type relation = Le | Ge | Eq

type cstr = { cexpr : linexpr; rel : relation; rhs : Rat.t; cname : string }

type sense = Minimize | Maximize

(* analysis: domain-local — a problem builder belongs to the single
   caller constructing it; solving snapshots it into the immutable
   compiled form below, which is what crosses domains. *)
type problem = {
  mutable nvars : int;
  mutable var_names : string list;  (** reversed *)
  mutable lower : Rat.t option list;  (** reversed; None = free *)
  mutable constraints : cstr list;  (** reversed *)
  mutable objective : linexpr;
  mutable obj_sense : sense;
}

let make () =
  {
    nvars = 0;
    var_names = [];
    lower = [];
    constraints = [];
    objective = Expr.zero;
    obj_sense = Minimize;
  }

let fresh_var ?(name = "") ?(lb = Some Rat.zero) p =
  let v = p.nvars in
  p.nvars <- v + 1;
  p.var_names <- (if name = "" then Printf.sprintf "x%d" v else name) :: p.var_names;
  p.lower <- lb :: p.lower;
  v

let n_constraints p = List.length p.constraints

let constraint_name p i =
  let cstrs = Array.of_list (List.rev p.constraints) in
  if i < 0 || i >= Array.length cstrs then invalid_arg "Lp.constraint_name";
  let { cname; _ } = cstrs.(i) in
  if cname = "" then Printf.sprintf "c%d" i else cname

let add_constraint ?(name = "") p expr rel rhs =
  p.constraints <- { cexpr = Expr.normalize expr; rel; rhs; cname = name } :: p.constraints

let add_le ?name p expr rhs = add_constraint ?name p expr Le rhs
let add_ge ?name p expr rhs = add_constraint ?name p expr Ge rhs
let add_eq ?name p expr rhs = add_constraint ?name p expr Eq rhs

let set_objective p sense expr =
  p.obj_sense <- sense;
  p.objective <- Expr.normalize expr

type solution = { objective : Rat.t; values : Rat.t array }
type outcome = Optimal of solution | Failed of Solver_error.t

(* Compile the model to standard form  min c.x', A x' = b, x' >= 0,
   built column-wise (CSC):
   - variable with lower bound l:  x = x' + l;
   - free variable:                x = x⁺ − x⁻;
   - Le row gains a slack, Ge row a surplus, Eq rows none. *)
type standard_form = {
  a : Revised.csc;
  b : Rat.t array;
  c : Rat.t array;
  var_col : int array;
  var_neg_col : int array;
  var_lower : Rat.t option array;
  flip : bool;
  obj_shift : Rat.t;
}

let standard_form p =
  Obs.span
    ~attrs:[ ("nvars", Obs.Int p.nvars); ("nconstraints", Obs.Int (n_constraints p)) ]
    "lp.compile"
  @@ fun () ->
  let nv = p.nvars in
  let lower = Array.of_list (List.rev p.lower) in
  let constraints = List.rev p.constraints in
  let m = List.length constraints in
  (* Column layout: for each model var, either one shifted column or a
     (plus, minus) pair; then one slack/surplus column per inequality. *)
  let col_of_var = Array.make nv (-1) in
  let neg_col_of_var = Array.make nv (-1) in
  let next = ref 0 in
  Array.iteri
    (fun v lb ->
      col_of_var.(v) <- !next;
      incr next;
      if lb = None then begin
        neg_col_of_var.(v) <- !next;
        incr next
      end)
    lower;
  let n_ineq = List.length (List.filter (fun c -> c.rel <> Eq) constraints) in
  let total = !next + n_ineq in
  (* Per-column entry lists, reversed (constraints visited in row
     order, so each reversed list is descending — re-reversed below). *)
  let cols : (int * Rat.t) list array = Array.make total [] in
  let nnz = ref 0 in
  let add_entry i j v =
    cols.(j) <- (i, v) :: cols.(j);
    incr nnz
  in
  let b = Array.make m Rat.zero in
  let slack = ref !next in
  List.iteri
    (fun i c ->
      (* rhs adjusted for lower-bound shifts: Σ coef*(x'+l) rel rhs. *)
      let shift = ref Rat.zero in
      List.iter
        (fun (v, coef) ->
          add_entry i col_of_var.(v) coef;
          if neg_col_of_var.(v) >= 0 then add_entry i neg_col_of_var.(v) (Rat.neg coef);
          match lower.(v) with
          | Some l when not (Rat.is_zero l) -> shift := Rat.add !shift (Rat.mul coef l)
          | _ -> ())
        c.cexpr.terms;
      b.(i) <- Rat.sub (Rat.sub c.rhs c.cexpr.const) !shift;
      (match c.rel with
       | Le ->
         add_entry i !slack Rat.one;
         incr slack
       | Ge ->
         add_entry i !slack Rat.minus_one;
         incr slack
       | Eq -> ()))
    constraints;
  let colp = Array.make (total + 1) 0 in
  let rowi = Array.make !nnz 0 and vals = Array.make !nnz Rat.zero in
  let t = ref 0 in
  Array.iteri
    (fun j l ->
      colp.(j) <- !t;
      List.iter
        (fun (i, v) ->
          rowi.(!t) <- i;
          vals.(!t) <- v;
          incr t)
        (List.rev l))
    cols;
  colp.(total) <- !t;
  let cvec = Array.make total Rat.zero in
  let obj = Expr.normalize p.objective in
  let obj_shift = ref obj.const in
  List.iter
    (fun (v, coef) ->
      cvec.(col_of_var.(v)) <- Rat.add cvec.(col_of_var.(v)) coef;
      if neg_col_of_var.(v) >= 0 then
        cvec.(neg_col_of_var.(v)) <- Rat.sub cvec.(neg_col_of_var.(v)) coef;
      match lower.(v) with
      | Some l when not (Rat.is_zero l) -> obj_shift := Rat.add !obj_shift (Rat.mul coef l)
      | _ -> ())
    obj.terms;
  let flip = p.obj_sense = Maximize in
  let cvec = if flip then Array.map Rat.neg cvec else cvec in
  {
    a = { Revised.m; n = total; colp; rowi; vals };
    b;
    c = cvec;
    var_col = col_of_var;
    var_neg_col = neg_col_of_var;
    var_lower = lower;
    flip;
    obj_shift = !obj_shift;
  }

(* Map a raw standard-form optimum back to model coordinates. *)
let extract_outcome sf raw duals =
  let duals =
    (* Standard form minimizes; for a Maximize model (costs negated)
       the caller-facing duals flip sign. *)
    match duals with
    | Some y when sf.flip -> Some (Array.map Rat.neg y)
    | d -> d
  in
  match raw with
  | Error e -> (Failed e, None)
  | Ok (raw_obj, (x : Rat.t array)) ->
    let values =
      Array.mapi
        (fun v col ->
          let value =
            if sf.var_neg_col.(v) >= 0 then Rat.sub x.(col) x.(sf.var_neg_col.(v)) else x.(col)
          in
          match sf.var_lower.(v) with Some l -> Rat.add value l | None -> value)
        sf.var_col
    in
    let objective =
      let signed = if sf.flip then Rat.neg raw_obj else raw_obj in
      Rat.add signed sf.obj_shift
    in
    Obs.observe_bits "lp.objective_bits" objective;
    (Optimal { objective; values }, duals)

(* ------------------------------------------------------------------ *)
(* Solver sessions                                                    *)
(* ------------------------------------------------------------------ *)

module Solver = struct
  type warm_status = Revised.warm_outcome = Cold | Warm_hit | Warm_miss

  type stats = {
    pivots : int;
    refactorizations : int;
    warm : warm_status;
  }

  type basis = { b_sig : string; b_cols : int array }

  type result = {
    outcome : outcome;
    duals : Rat.t array option;
    basis : basis option;
    stats : stats;
  }

  (* analysis: domain-local — a session belongs to the single caller
     driving a solve sequence; nothing in it crosses domains. *)
  type t = {
    pricing : Revised.pricing option;
    crash : bool option;
    cache : (string, int array) Hashtbl.t;  (** shape signature → last optimal basis *)
  }

  let create ?pricing ?crash () = { pricing; crash; cache = Hashtbl.create 8 }

  (* The standard-form column/row layout is fully determined by the
     variable count, the free/bounded pattern, and the relation
     sequence — a basis is reusable exactly when these match. Both
     lists are stored reversed; consistently so, which is all a
     signature needs. *)
  let shape_signature p =
    let buf = Buffer.create (p.nvars + n_constraints p + 8) in
    Buffer.add_string buf (string_of_int p.nvars);
    Buffer.add_char buf ':';
    List.iter
      (fun lb -> Buffer.add_char buf (match lb with None -> 'f' | Some _ -> 'b'))
      p.lower;
    Buffer.add_char buf ':';
    List.iter
      (fun c -> Buffer.add_char buf (match c.rel with Le -> 'l' | Ge -> 'g' | Eq -> 'e'))
      p.constraints;
    Buffer.add_char buf (match p.obj_sense with Minimize -> 'm' | Maximize -> 'M');
    Buffer.contents buf

  let solve ?budget ?warm t p =
    Obs.span
      ~attrs:[ ("nvars", Obs.Int p.nvars); ("nconstraints", Obs.Int (n_constraints p)) ]
      "lp.solve"
    @@ fun () ->
    Obs.incr "lp.solves";
    let sf = standard_form p in
    let sg = shape_signature p in
    let warm_cols =
      match warm with
      | Some h -> if String.equal h.b_sig sg then Some h.b_cols else None
      | None -> Hashtbl.find_opt t.cache sg
    in
    let sv =
      Revised.solve ?pricing:t.pricing ?crash:t.crash ?budget ?warm:warm_cols ~a:sf.a ~b:sf.b
        ~c:sf.c ()
    in
    (match sv.Revised.basis with
    | Some cols -> Hashtbl.replace t.cache sg (Array.copy cols)
    | None -> ());
    let raw =
      match sv.Revised.res with
      | Revised.Failed e -> Error e
      | Revised.Optimal (o, x) -> Ok (o, x)
    in
    let outcome, duals = extract_outcome sf raw sv.Revised.duals in
    {
      outcome;
      duals;
      basis =
        (match sv.Revised.basis with
        | Some cols -> Some { b_sig = sg; b_cols = Array.copy cols }
        | None -> None);
      stats =
        {
          pivots = sv.Revised.stats.Revised.pivots;
          refactorizations = sv.Revised.stats.Revised.refactorizations;
          warm = sv.Revised.stats.Revised.warm;
        };
    }
end

(* One-shot wrapper: a fresh session per call, no warm start — a cold
   solve, pivot for pivot the tableau oracle's. *)
let solve ?pricing ?crash ?budget p =
  (Solver.solve ?budget (Solver.create ?pricing ?crash ()) p).Solver.outcome

(* ------------------------------------------------------------------ *)
(* Verification helpers                                               *)
(* ------------------------------------------------------------------ *)

(** [check_solution p sol] re-evaluates every constraint and the bound
    of every variable against the claimed values; used by tests as an
    independent certificate. *)
let check_solution p (sol : solution) =
  let lower = Array.of_list (List.rev p.lower) in
  let bounds_ok =
    Array.for_all2
      (fun lb v -> match lb with None -> true | Some l -> Rat.compare v l >= 0)
      lower sol.values
  in
  let cstr_ok c =
    let lhs = Expr.eval sol.values c.cexpr in
    match c.rel with
    | Le -> Rat.compare lhs c.rhs <= 0
    | Ge -> Rat.compare lhs c.rhs >= 0
    | Eq -> Rat.equal lhs c.rhs
  in
  let obj_ok = Rat.equal (Expr.eval sol.values p.objective) sol.objective in
  bounds_ok && List.for_all cstr_ok p.constraints && obj_ok
