(* See guard.mli. *)

(* analysis: domain-local — one guard record is allocated per solve
   call and never escapes the solving domain. *)
type t = {
  budget : Budget.t option;
  faults : bool;  (** a fault plan was ambient at solve entry *)
  track_bits : bool;
  active : bool;
  mutable pivots : int;
  mutable peak_bits : int;
}

let make budget =
  let faults = Fault.enabled () in
  let has_bits_cap =
    match budget with Some b -> b.Budget.max_bits <> None | None -> false
  in
  {
    budget;
    faults;
    track_bits = faults || has_bits_cap;
    active = faults || Option.is_some budget;
    pivots = 0;
    peak_bits = 0;
  }

let note_bits g bits = if bits > g.peak_bits then g.peak_bits <- bits
let count_pivot g = g.pivots <- g.pivots + 1
let tracks_bits g = g.track_bits

let check g ~site =
  if not g.active then None
  else begin
    let exhaust kind =
      Some { Solver_error.site; kind; pivots = g.pivots; peak_bits = g.peak_bits }
    in
    match if g.faults then Fault.hit site else None with
    | Some Fault.Trip -> exhaust Solver_error.Injected
    | Some (Fault.Exhaust kind) -> exhaust kind
    | (Some (Fault.Blowup_bits _) | None) as a -> (
      (match a with Some (Fault.Blowup_bits bits) -> note_bits g bits | _ -> ());
      match g.budget with
      | None -> None
      | Some b -> Option.bind (Budget.check b ~pivots:g.pivots ~peak_bits:g.peak_bits) exhaust)
  end
