(* Compiled mechanisms; see compiled.mli. *)

module M = Mech.Mechanism
module S = Minimax.Serve
module I = Check.Invariants

exception Uncertified of { key : string; rule : string }

type sampler = Mech.Sampler.t array

type t = {
  key : string;
  served : S.served;
  certificates : I.certificate list;
  sampler : sampler;
}

let () =
  Printexc.register_printer (function
    | Uncertified { key; rule } ->
      Some (Printf.sprintf "Compiled.Uncertified(key=%s,rule=%s)" key rule)
    | _ -> None)

let sampler_of_mechanism ?(key = "") mech =
  Array.init (M.size mech) (fun i ->
      try Mech.Sampler.of_row (M.row mech i)
      with Mech.Sampler.Unfaithful _ -> raise (Uncertified { key; rule = "exact-sampler" }))

let draws s ~input ~count rng =
  if count < 1 then invalid_arg "Compiled.draws: count must be >= 1";
  if input < 0 || input >= Array.length s then invalid_arg "Compiled.draws: input out of {0..n}";
  let table = s.(input) in
  Array.init count (fun _ -> Mech.Sampler.draw table rng)

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
  let sampler = sampler_of_mechanism ~key served.S.mechanism in
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
  { key; served; certificates; sampler = sampler_of_mechanism ~key mechanism }

let rung t = t.served.S.provenance.S.rung
let loss t = t.served.S.loss
