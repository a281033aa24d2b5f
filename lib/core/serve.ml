(** Budgeted solving with certified degradation to the geometric
    mechanism; see serve.mli for the ladder contract. *)

type rung = Tailored | Geometric_remap | Geometric_raw

type reason =
  | Solver of Lp.Solver_error.t
  | Uncertified of string

type attempt = { attempted : rung; reason : reason }

type provenance = {
  rung : rung;
  alpha : Rat.t;
  n : int;
  attempts : attempt list;
  pivots_spent : int;
  peak_bits : int;
  checks : string list;
}

type served = {
  mechanism : Mech.Mechanism.t;
  loss : Rat.t;
  provenance : provenance;
}

exception Certification_failed of { rung : string; rule : string }

let rung_to_string = function
  | Tailored -> "tailored"
  | Geometric_remap -> "geometric+remap"
  | Geometric_raw -> "geometric"

let reason_to_string = function
  | Solver e -> Lp.Solver_error.to_string e
  | Uncertified rule -> "uncertified:" ^ rule

let provenance_to_string p =
  Printf.sprintf "rung=%s alpha=%s n=%d attempts=[%s] pivots_spent=%d peak_bits=%d checks=[%s]"
    (rung_to_string p.rung) (Rat.to_string p.alpha) p.n
    (String.concat ";"
       (List.map
          (fun a -> Printf.sprintf "%s:%s" (rung_to_string a.attempted) (reason_to_string a.reason))
          p.attempts))
    p.pivots_spent p.peak_bits
    (String.concat "," p.checks)

let reason_to_json = function
  | Solver e -> Lp.Solver_error.to_json e
  | Uncertified rule ->
    Obs.Json.Obj [ ("verdict", Obs.Json.Str "uncertified"); ("rule", Obs.Json.Str rule) ]

let provenance_to_json p =
  Obs.Json.Obj
    [
      ("rung", Obs.Json.Str (rung_to_string p.rung));
      ("alpha", Obs.Json.Str (Rat.to_string p.alpha));
      ("n", Obs.Json.Int p.n);
      ( "attempts",
        Obs.Json.List
          (List.map
             (fun a ->
               Obs.Json.Obj
                 [
                   ("rung", Obs.Json.Str (rung_to_string a.attempted));
                   ("reason", reason_to_json a.reason);
                 ])
             p.attempts) );
      ("pivots_spent", Obs.Json.Int p.pivots_spent);
      ("peak_bits", Obs.Json.Int p.peak_bits);
      ("checks", Obs.Json.List (List.map (fun c -> Obs.Json.Str c) p.checks));
    ]

(* Re-verify a candidate through the independent analyzer before
   release. Both rungs are G(n,α) post-processed (by T or by the
   identity), so the audit's Theorem-2 derivability rule holds by
   construction. *)
let certify ~alpha m =
  match Check.Invariants.audit_release ~alpha (Mech.Mechanism.matrix m) with
  | Ok certificates -> Ok (List.map (fun c -> c.Check.Invariants.cert_rule) certificates)
  | Error r -> Error r.Check.Invariants.rule

let spend_of_attempts attempts =
  List.fold_left
    (fun (pivots, bits) a ->
      match a.reason with
      | Solver (Lp.Solver_error.Exhausted ex) ->
        (pivots + ex.Lp.Solver_error.pivots, max bits ex.Lp.Solver_error.peak_bits)
      | _ -> (pivots, bits))
    (0, 0) attempts

let serve ?budget ~alpha (consumer : Consumer.t) =
  Mech.Geometric.check_alpha alpha;
  let n = Consumer.n consumer in
  Obs.span ~attrs:[ ("n", Obs.Int n); ("alpha", Obs.Rat alpha) ] "core.serve" @@ fun () ->
  let release rung attempts mechanism loss checks =
    let pivots_spent, peak_bits = spend_of_attempts attempts in
    {
      mechanism;
      loss;
      provenance =
        { rung; alpha; n; attempts = List.rev attempts; pivots_spent; peak_bits; checks };
    }
  in
  let degrade rung reason =
    Obs.incr "resilience.degradations";
    { attempted = rung; reason }
  in
  let geometric = Mech.Geometric.matrix ~n ~alpha in
  (* Rung 1: G(n,α) + the optimal-interaction remap — optimal for
     every minimax consumer by Theorem 1. *)
  let remap =
    match Optimal_interaction.solve_budgeted ?budget ~deployed:geometric consumer with
    | Ok r -> (
      match certify ~alpha r.Optimal_interaction.induced with
      | Ok checks ->
        Ok (release Geometric_remap [] r.Optimal_interaction.induced r.Optimal_interaction.loss checks)
      | Error rule -> Error (degrade Geometric_remap (Uncertified rule)))
    | Error e -> Error (degrade Geometric_remap (Solver e))
  in
  match remap with
  | Ok served -> served
  | Error first -> (
    (* Rung 2: raw G(n,α) — no LP, universally optimal by Theorem 2. *)
    match certify ~alpha geometric with
    | Ok checks ->
      release Geometric_raw [ first ] geometric (Consumer.minimax_loss consumer geometric) checks
    | Error rule -> raise (Certification_failed { rung = rung_to_string Geometric_raw; rule }))
