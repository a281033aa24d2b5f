(* The domain analyzer; see invariants.mli.

   Checks recompute invariants from first principles over exact
   rationals. Every violation carries the exact counterexample; every
   pass carries a certificate naming the binding constraint, so both
   outcomes can be re-derived without re-running the analyzer. *)

module D = Diagnostic
module Qm = Linalg.Matrix.Q

type certificate = {
  cert_rule : string;
  params : (string * string) list;
  constraints_checked : int;
  tight : (string * string) list;
}

type report = {
  rule : string;
  diagnostics : D.t list;
  certificate : certificate option;
}

let passed r = r.diagnostics = []
let all_passed rs = List.for_all passed rs

(* The text is [Rat.to_string] of each cell, a space after each and a
   newline after each row, written straight into the buffer. *)
let matrix_digest m =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun row ->
      Array.iter
        (fun x ->
          Buffer.add_string buf (Bigint.to_string (Rat.num x));
          if not (Rat.is_integer x) then begin
            Buffer.add_char buf '/';
            Buffer.add_string buf (Bigint.to_string (Rat.den x))
          end;
          Buffer.add_char buf ' ')
        row;
      Buffer.add_char buf '\n')
    m;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let finish ~rule ~params ~checked ~tight diagnostics =
  {
    rule;
    diagnostics = List.rev diagnostics;
    certificate =
      (if diagnostics = [] then
         Some { cert_rule = rule; params; constraints_checked = checked; tight }
       else None);
  }

let check_alpha_range name alpha =
  if Rat.sign alpha <= 0 || Rat.compare alpha Rat.one >= 0 then
    invalid_arg (name ^ ": alpha must lie strictly inside (0,1)")

(* ------------------------------------------------------------------ *)
(* Row-stochasticity                                                   *)
(* ------------------------------------------------------------------ *)

let row_stochastic_with ~digest m =
  let rule = "row-stochastic" in
  let rows = Array.length m in
  if rows = 0 then
    finish ~rule ~params:[] ~checked:0 ~tight:[]
      [ D.error ~rule D.Whole "empty matrix" ]
  else begin
    let diags = ref [] in
    let checked = ref 0 in
    (* Binding data: the smallest entry and where it sits; none until a
       square row is read (a ragged first row may be empty). *)
    let min_entry = ref None in
    Array.iteri
      (fun i row ->
        incr checked;
        if Array.length row <> rows then
          diags :=
            D.error ~rule
              ~witness:[ ("expected_cols", string_of_int rows);
                         ("actual_cols", string_of_int (Array.length row)) ]
              (D.Matrix_row { row = i })
              "matrix is not square"
            :: !diags
        else begin
          Array.iteri
            (fun r x ->
              incr checked;
              (match !min_entry with
               | Some (y, _) when Rat.compare x y >= 0 -> ()
               | _ -> min_entry := Some (x, (i, r)));
              if Rat.sign x < 0 then
                diags :=
                  D.error ~rule
                    ~witness:(D.rats [ ("entry", x) ])
                    (D.Matrix_cell { row = i; col = r })
                    "negative probability mass"
                  :: !diags)
            row;
          let sum = Array.fold_left Rat.add Rat.zero row in
          incr checked;
          if not (Rat.is_one sum) then
            diags :=
              D.error ~rule
                ~witness:(D.rats [ ("row_sum", sum); ("expected", Rat.one) ])
                (D.Matrix_row { row = i })
                "row does not sum to 1"
              :: !diags
        end)
      m;
    finish ~rule
      ~params:[ ("rows", string_of_int rows); ("digest", digest) ]
      ~checked:!checked
      ~tight:
        (match !min_entry with
         | Some (x, (mi, mr)) ->
           [ ("min_entry", Rat.to_string x); ("min_entry_at", Printf.sprintf "(%d,%d)" mi mr) ]
         | None -> [])
      !diags
  end

let row_stochastic m = row_stochastic_with ~digest:(matrix_digest m) m

(* ------------------------------------------------------------------ *)
(* Definition 2: alpha-differential privacy                            *)
(* ------------------------------------------------------------------ *)

let alpha_dp_with ~digest ~alpha m =
  let rule = "alpha-dp" in
  check_alpha_range "Invariants.alpha_dp" alpha;
  let n = Array.length m - 1 in
  let diags = ref [] in
  let checked = ref 0 in
  (* Strongest supported alpha: min over adjacent pairs of
     min(a/b, b/a); zero when a zero sits next to a non-zero. *)
  let strongest = ref Rat.one and strongest_at = ref (0, 0) in
  let note i r ratio =
    if Rat.compare ratio !strongest < 0 then begin
      strongest := ratio;
      strongest_at := (i, r)
    end
  in
  let violation i r a b side lhs rhs msg =
    diags :=
      D.error ~rule
        ~witness:
          (D.rats [ ("alpha", alpha); ("x_i", a); ("x_succ", b); ("lhs", lhs); ("rhs", rhs) ]
          @ [ ("side", side) ])
        (D.Adjacent_pair { row = i; col = r })
        msg
      :: !diags
  in
  let check_products i r a b =
    (* alpha * a <= b  (the released mass cannot drop too fast) *)
    let lhs = Rat.mul alpha a in
    if Rat.compare lhs b > 0 then
      violation i r a b "alpha*x_i <= x_succ" lhs b
        "Definition 2 violated: alpha*x(i,r) > x(i+1,r)";
    (* alpha * b <= a *)
    let lhs = Rat.mul alpha b in
    if Rat.compare lhs a > 0 then
      violation i r a b "alpha*x_succ <= x_i" lhs a
        "Definition 2 violated: alpha*x(i+1,r) > x(i,r)"
  in
  for i = 0 to n - 1 do
    for r = 0 to n do
      let a = m.(i).(r) and b = m.(i + 1).(r) in
      checked := !checked + 2;
      if Rat.sign a > 0 && Rat.sign b > 0 then begin
        (* For positive masses both constraints hold iff
           alpha <= min(a/b, b/a), so the one division that tracks the
           binding ratio also decides the pair; the products are only
           formed, for the witness, when it fails. *)
        let ratio = if Rat.compare a b <= 0 then Rat.div a b else Rat.div b a in
        if Rat.compare alpha ratio > 0 then check_products i r a b;
        note i r ratio
      end
      else begin
        check_products i r a b;
        match (Rat.is_zero a, Rat.is_zero b) with
        | true, true -> ()
        | true, false | false, true -> note i r Rat.zero
        | false, false -> note i r (if Rat.compare a b <= 0 then Rat.div a b else Rat.div b a)
      end
    done
  done;
  let si, sr = !strongest_at in
  finish ~rule
    ~params:
      [ ("n", string_of_int n); ("alpha", Rat.to_string alpha); ("digest", digest) ]
    ~checked:!checked
    ~tight:
      [ ("privacy_level", Rat.to_string !strongest);
        ("binding_pair", Printf.sprintf "rows %d/%d col %d" si (si + 1) sr) ]
    !diags

let alpha_dp ~alpha m = alpha_dp_with ~digest:(matrix_digest m) ~alpha m

(* ------------------------------------------------------------------ *)
(* Theorem 2: derivability condition                                   *)
(* ------------------------------------------------------------------ *)

let derivability_with ~digest ~alpha m =
  let rule = "derivable" in
  check_alpha_range "Invariants.derivability" alpha;
  let n = Array.length m - 1 in
  let diags = ref [] in
  let checked = ref 0 in
  let one_plus_a2 = Rat.add Rat.one (Rat.mul alpha alpha) in
  let min_slack = ref None and min_at = ref (0, 0) in
  let note_slack slack c i =
    match !min_slack with
    | Some s when Rat.compare s slack <= 0 -> ()
    | _ ->
      min_slack := Some slack;
      min_at := (c, i)
  in
  for c = 0 to n do
    (* Lemma 2 boundary inequalities. *)
    incr checked;
    let top = Rat.sub m.(0).(c) (Rat.mul alpha m.(1).(c)) in
    note_slack top c 0;
    if Rat.sign top < 0 then
      diags :=
        D.error ~rule
          ~witness:(D.rats [ ("alpha", alpha); ("x_0", m.(0).(c)); ("x_1", m.(1).(c)); ("slack", top) ])
          (D.Matrix_cell { row = 0; col = c })
          "boundary condition violated: x_0 < alpha*x_1"
        :: !diags;
    incr checked;
    let bottom = Rat.sub m.(n).(c) (Rat.mul alpha m.(n - 1).(c)) in
    note_slack bottom c n;
    if Rat.sign bottom < 0 then
      diags :=
        D.error ~rule
          ~witness:
            (D.rats [ ("alpha", alpha); ("x_n", m.(n).(c)); ("x_pred", m.(n - 1).(c)); ("slack", bottom) ])
          (D.Matrix_cell { row = n; col = c })
          "boundary condition violated: x_n < alpha*x_{n-1}"
        :: !diags;
    for i = 1 to n - 1 do
      incr checked;
      let x1 = m.(i - 1).(c) and x2 = m.(i).(c) and x3 = m.(i + 1).(c) in
      let slack = Rat.sub (Rat.mul one_plus_a2 x2) (Rat.mul alpha (Rat.add x1 x3)) in
      note_slack slack c i;
      if Rat.sign slack < 0 then
        diags :=
          D.error ~rule
            ~witness:
              (D.rats
                 [ ("alpha", alpha); ("x1", x1); ("x2", x2); ("x3", x3); ("slack", slack) ])
            (D.Column_triple { col = c; mid = i })
            "Theorem 2 violated: (1+alpha^2)*x2 < alpha*(x1+x3)"
          :: !diags
    done
  done;
  let bc, bi = !min_at in
  finish ~rule
    ~params:
      [ ("n", string_of_int n); ("alpha", Rat.to_string alpha); ("digest", digest) ]
    ~checked:!checked
    ~tight:
      [ ("min_slack", match !min_slack with Some s -> Rat.to_string s | None -> "none");
        ("binding_triple", Printf.sprintf "col %d mid-row %d" bc bi) ]
    !diags

let derivability ~alpha m = derivability_with ~digest:(matrix_digest m) ~alpha m

(* ------------------------------------------------------------------ *)
(* Constructive factorization T = G^{-1} M                             *)
(* ------------------------------------------------------------------ *)

let factorization ~alpha m =
  let rule = "factorization" in
  check_alpha_range "Invariants.factorization" alpha;
  let n = Array.length m - 1 in
  let g = Mech.Mechanism.matrix (Mech.Geometric.matrix ~n ~alpha) in
  let t = Mech.Geometric.apply_inverse ~n ~alpha m in
  let diags = ref [] in
  let checked = ref 0 in
  let min_entry = ref t.(0).(0) and min_at = ref (0, 0) in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun r x ->
          incr checked;
          if Rat.compare x !min_entry < 0 then begin
            min_entry := x;
            min_at := (i, r)
          end;
          if Rat.sign x < 0 then
            diags :=
              D.error ~rule
                ~witness:(D.rats [ ("t_entry", x) ])
                (D.Matrix_cell { row = i; col = r })
                "factor T = G^-1*M has a negative entry (not a post-processing)"
              :: !diags)
        row;
      let sum = Array.fold_left Rat.add Rat.zero row in
      incr checked;
      if not (Rat.is_one sum) then
        diags :=
          D.error ~rule
            ~witness:(D.rats [ ("row_sum", sum) ])
            (D.Matrix_row { row = i })
            "factor T = G^-1*M row does not sum to 1"
          :: !diags)
    t;
  (* Replay: G * T must reproduce M exactly, so the certificate checks
     the closed-form inverse rather than trusting it. *)
  let replay = Qm.mul g t in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun r x ->
          incr checked;
          if not (Rat.equal x m.(i).(r)) then
            diags :=
              D.error ~rule
                ~witness:(D.rats [ ("replayed", x); ("original", m.(i).(r)) ])
                (D.Matrix_cell { row = i; col = r })
                "replay G*T did not reproduce M (closed-form inverse bug)"
              :: !diags)
        row)
    replay;
  let mi, mr = !min_at in
  finish ~rule
    ~params:
      [ ("n", string_of_int n); ("alpha", Rat.to_string alpha); ("digest", matrix_digest m) ]
    ~checked:!checked
    ~tight:
      [ ("min_T_entry", Rat.to_string !min_entry);
        ("min_T_entry_at", Printf.sprintf "(%d,%d)" mi mr) ]
    !diags

(* ------------------------------------------------------------------ *)
(* Monotone-loss well-formedness                                       *)
(* ------------------------------------------------------------------ *)

let monotone_loss ~name ~n f =
  let rule = "monotone-loss" in
  if n < 1 then invalid_arg "Invariants.monotone_loss: n must be >= 1";
  let diags = ref [] in
  let checked = ref 0 in
  let min_step = ref None in
  for i = 0 to n do
    incr checked;
    let diag = f i i in
    if not (Rat.is_zero diag) then
      diags :=
        D.error ~rule
          ~witness:(D.rats [ ("loss", diag) ])
          (D.Matrix_cell { row = i; col = i })
          "loss is non-zero on the diagonal"
        :: !diags;
    (* Sort outputs by distance from i and require non-decreasing. *)
    let outs = List.init (n + 1) Fun.id in
    let by_dist = List.sort (fun a b -> compare (abs (i - a)) (abs (i - b))) outs in
    let rec walk = function
      | r1 :: (r2 :: _ as rest) ->
        incr checked;
        let l1 = f i r1 and l2 = f i r2 in
        if Rat.sign l1 < 0 then
          diags :=
            D.error ~rule
              ~witness:(D.rats [ ("loss", l1) ])
              (D.Matrix_cell { row = i; col = r1 })
              "negative loss"
            :: !diags;
        if abs (i - r1) < abs (i - r2) && Rat.compare l1 l2 > 0 then
          diags :=
            D.error ~rule
              ~witness:
                (D.rats [ ("near_loss", l1); ("far_loss", l2) ]
                 @ [ ("near", string_of_int r1); ("far", string_of_int r2) ])
              (D.Matrix_cell { row = i; col = r2 })
              "loss decreases as |i-r| grows (not monotone)"
            :: !diags
        else if abs (i - r1) < abs (i - r2) then begin
          let step = Rat.sub l2 l1 in
          match !min_step with
          | Some s when Rat.compare s step <= 0 -> ()
          | _ -> min_step := Some step
        end;
        walk rest
      | _ -> ()
    in
    walk by_dist
  done;
  finish ~rule
    ~params:[ ("loss", name); ("n", string_of_int n) ]
    ~checked:!checked
    ~tight:
      [ ("min_monotone_step",
         match !min_step with Some s -> Rat.to_string s | None -> "none") ]
    !diags

(* ------------------------------------------------------------------ *)
(* Lemma 3: the cascade transition matrix                              *)
(* ------------------------------------------------------------------ *)

let lemma3_transition ~n ~alpha ~beta =
  let rule = "lemma3-transition" in
  check_alpha_range "Invariants.lemma3_transition" alpha;
  check_alpha_range "Invariants.lemma3_transition" beta;
  if Rat.compare alpha beta > 0 then
    invalid_arg "Invariants.lemma3_transition: need alpha <= beta";
  let g_beta = Mech.Mechanism.matrix (Mech.Geometric.matrix ~n ~alpha:beta) in
  let fact = factorization ~alpha g_beta in
  let params =
    [ ("n", string_of_int n);
      ("alpha", Rat.to_string alpha);
      ("beta", Rat.to_string beta) ]
  in
  {
    rule;
    diagnostics = fact.diagnostics;
    certificate =
      Option.map
        (fun c ->
          let digest = List.filter (fun (k, _) -> k = "digest") c.params in
          { c with cert_rule = rule; params = params @ digest })
        fact.certificate;
  }

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

(* The three rules hash the same matrix text; the audit renders and
   hashes it once. Row-stochasticity goes first: the later rules index
   a square matrix. *)
let audit_release ~alpha m =
  check_alpha_range "Invariants.audit_release" alpha;
  if Array.length m < 2 then invalid_arg "Invariants.audit_release: fewer than two rows";
  let digest = matrix_digest m in
  let rec run certs = function
    | [] -> Ok (List.rev certs)
    | rule :: rest -> (
      let r = rule () in
      match r.certificate with Some c -> run (c :: certs) rest | None -> Error r)
  in
  run []
    [
      (fun () -> row_stochastic_with ~digest m);
      (fun () -> alpha_dp_with ~digest ~alpha m);
      (fun () -> derivability_with ~digest ~alpha m);
    ]

let check_mech ?alpha m =
  Obs.span ~attrs:[ ("rows", Obs.Int (Array.length m)) ] "check.mech" @@ fun () ->
  let base = row_stochastic m in
  match alpha with
  | None -> [ base ]
  | Some alpha ->
    if passed base && Array.length m >= 2 then
      [ base; alpha_dp ~alpha m; derivability ~alpha m; factorization ~alpha m ]
    else [ base ]

let check_derivable ~alpha m =
  Obs.span ~attrs:[ ("rows", Obs.Int (Array.length m)) ] "check.derivable" @@ fun () ->
  let base = row_stochastic m in
  if passed base && Array.length m >= 2 then
    [ base; derivability ~alpha m; factorization ~alpha m ]
  else [ base ]

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let pairs_to_json kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)

let certificate_to_json c =
  Json.Obj
    [
      ("rule", Json.Str c.cert_rule);
      ("params", pairs_to_json c.params);
      ("constraints_checked", Json.Int c.constraints_checked);
      ("tight", pairs_to_json c.tight);
    ]

let report_to_json r =
  Json.Obj
    [
      ("rule", Json.Str r.rule);
      ("ok", Json.Bool (passed r));
      ("diagnostics", Json.List (List.map D.to_json r.diagnostics));
      ("certificate",
       match r.certificate with None -> Json.Null | Some c -> certificate_to_json c);
    ]

let summary_to_json rs =
  Json.Obj
    [
      ("tool", Json.Str "dplint");
      ("ok", Json.Bool (all_passed rs));
      ("reports", Json.List (List.map report_to_json rs));
    ]

let pp_report fmt r =
  if passed r then begin
    match r.certificate with
    | Some c ->
      Format.fprintf fmt "@[<v 2>PASS %s (%d constraints)%a@]" r.rule c.constraints_checked
        (fun fmt tight ->
          List.iter (fun (k, v) -> Format.fprintf fmt "@,%s = %s" k v) tight)
        c.tight
    | None -> Format.fprintf fmt "PASS %s" r.rule
  end
  else
    Format.fprintf fmt "@[<v 2>FAIL %s (%d violations)%a@]" r.rule
      (List.length r.diagnostics)
      (fun fmt ds -> List.iter (fun d -> Format.fprintf fmt "@,%a" D.pp d) ds)
      r.diagnostics
