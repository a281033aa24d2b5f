type action =
  | Trip
  | Exhaust of Solver_error.budget_kind
  | Blowup_bits of int

type trigger = { site : string; hits : int; action : action }

type plan = {
  triggers : trigger list;
  counts : (string, int) Hashtbl.t;
  mutable trips : int;
}

let plan triggers = { triggers; counts = Hashtbl.create 8; trips = 0 }

exception Injected of { site : string; hit : int }

let () =
  Printexc.register_printer (function
    | Injected { site; hit } ->
      Some (Printf.sprintf "Fault.Injected(site=%s,hit=%d)" site hit)
    | _ -> None)

(* analysis: domain-local — the ambient plan is one word: installs and
   reads are single-word stores/loads of an immutable option; the
   plan's own trip counters serialize behind its mutex. *)
let ambient : plan option ref = ref None
let install p = ambient := p
let enabled () = !ambient <> None

(* Domain safety: worker Domains hit trigger sites concurrently
   ("engine.worker" fires inside the pool). One global mutex guards
   the per-site hit counters and the trip tally; the disabled path is
   still a single ref read. The ambient Obs counter is bumped outside
   the lock — Obs has its own. *)
let lock = Mutex.create ()

let with_plan p f =
  let previous = !ambient in
  ambient := Some p;
  Fun.protect ~finally:(fun () -> ambient := previous) f

(* Count the hit and match triggers under the lock, returning the
   1-based hit number alongside the action so callers never re-read a
   counter another domain may since have advanced. *)
let hit_numbered site =
  match !ambient with
  | None -> None
  | Some p ->
    let fired =
      Mutex.protect lock (fun () ->
          let n = 1 + (try Hashtbl.find p.counts site with Not_found -> 0) in
          Hashtbl.replace p.counts site n;
          let fires t = t.site = site && (t.hits = 0 || t.hits = n) in
          match List.find_opt fires p.triggers with
          | None -> None
          | Some t ->
            p.trips <- p.trips + 1;
            Some (t.action, n))
    in
    (match fired with
    | None -> None
    | Some _ ->
      Obs.incr "fault.trips";
      fired)

let hit site = Option.map fst (hit_numbered site)

let trip site =
  match hit_numbered site with
  | None -> ()
  | Some (_, n) -> raise (Injected { site; hit = n })

let trips p = Mutex.protect lock (fun () -> p.trips)
