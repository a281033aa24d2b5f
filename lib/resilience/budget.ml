type t = {
  clock : Obs.Clock.t;
  deadline_ns : int64 option;
  max_pivots : int option;
  max_bits : int option;
}

let make ?(clock = Obs.Clock.monotonic) ?deadline_ms ?max_pivots ?max_bits () =
  let deadline_ns =
    match deadline_ms with
    | None -> None
    | Some ms -> Some (Int64.add (clock ()) (Int64.mul (Int64.of_int ms) 1_000_000L))
  in
  { clock; deadline_ns; max_pivots; max_bits }

let check b ~pivots ~peak_bits =
  match b.max_pivots with
  | Some cap when pivots >= cap -> Some Solver_error.Pivots
  | _ -> (
    match b.max_bits with
    | Some cap when peak_bits > cap -> Some Solver_error.Bits
    | _ -> (
      match b.deadline_ns with
      | Some dl when Int64.compare (b.clock ()) dl > 0 -> Some Solver_error.Deadline
      | _ -> None))

let to_string b =
  let dim name = function
    | None -> name ^ "=∞"
    | Some v -> Printf.sprintf "%s=%d" name v
  in
  let deadline =
    match b.deadline_ns with None -> "deadline=∞" | Some _ -> "deadline=set"
  in
  Printf.sprintf "budget(%s,%s,%s)" deadline
    (dim "max_pivots" b.max_pivots)
    (dim "max_bits" b.max_bits)
