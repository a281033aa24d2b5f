(* Compiled mechanisms; see compiled.mli. *)

module M = Mech.Mechanism
module S = Minimax.Serve
module I = Check.Invariants

type sampler = { mech : M.t; tables : Prob.Discrete.Alias.table array }

let sampler_of_mechanism mech =
  let size = M.size mech in
  let tables =
    Array.init size (fun i -> Prob.Discrete.Alias.build (M.row_distribution mech i))
  in
  { mech; tables }

let sampler_mechanism s = s.mech

let draw s ~input rng =
  if input < 0 || input >= Array.length s.tables then
    invalid_arg "Compiled.draw: input out of {0..n}";
  Prob.Discrete.Alias.sample s.tables.(input) rng

let draws s ~input ~count rng =
  if count < 1 then invalid_arg "Compiled.draws: count must be >= 1";
  if count = 1 then [| M.sample s.mech ~input rng |]
  else begin
    if input < 0 || input >= Array.length s.tables then
      invalid_arg "Compiled.draws: input out of {0..n}";
    let table = s.tables.(input) in
    Array.init count (fun _ -> Prob.Discrete.Alias.sample table rng)
  end

type t = {
  key : string;
  served : S.served;
  certificates : I.certificate list;
  sampler : sampler;
}

exception Uncertified of { key : string; rule : string }

let () =
  Printexc.register_printer (function
    | Uncertified { key; rule } ->
      Some (Printf.sprintf "Compiled.Uncertified(key=%s,rule=%s)" key rule)
    | _ -> None)

(* Independent re-audit of the released matrix. Serve already
   certified it once; compiling re-runs the analyzer so the cached
   artifact carries the actual replayable certificates, not just the
   rule names, and so a cache can be audited without trusting the
   ladder. *)
let audit ~key ~alpha matrix =
  match I.audit_release ~alpha matrix with
  | Ok certificates -> certificates
  | Error r -> raise (Uncertified { key; rule = r.I.rule })

let compile ?budget ~alpha ~key consumer =
  Obs.span ~attrs:[ ("key", Obs.Str key) ] "engine.compile" @@ fun () ->
  let served = S.serve ?budget ~alpha consumer in
  let certificates = audit ~key ~alpha (M.matrix served.S.mechanism) in
  let sampler = sampler_of_mechanism served.S.mechanism in
  Obs.incr "engine.compiles";
  { key; served; certificates; sampler }

(* The warm-restart entry point: a release reconstituted from outside
   the serve ladder (e.g. deserialized from a disk store) earns its
   certificates through the exact audit a fresh compile does, so an
   artifact that skipped the solver still cannot exist uncertified.
   The raw matrix becomes a mechanism only after the audit certified
   it row-stochastic. Deliberately does not bump "engine.compiles": no
   solve happened. *)
let of_matrix ~key ~alpha ~loss ~provenance matrix =
  let certificates = audit ~key ~alpha matrix in
  let mechanism = M.unsafe_of_audited matrix in
  let served = { S.mechanism; loss; provenance } in
  { key; served; certificates; sampler = sampler_of_mechanism mechanism }

let rung t = t.served.S.provenance.S.rung
let loss t = t.served.S.loss
