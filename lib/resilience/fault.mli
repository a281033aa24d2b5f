(** Deterministic fault injection for chaos tests.

    Instrumented code declares named trigger sites — ["simplex.phase1"],
    ["simplex.phase2"], ["mech.factor"], ["dpdb.csv.row"], … — by
    calling {!hit} (solver
    sites that translate faults into budget exhaustion) or {!trip}
    (sites that raise {!Injected} directly). A test installs a
    {!plan} listing which sites fire, on which hit, with which
    {!action}; with no plan installed every call is one ref read plus a
    branch, the same ambient pattern as {!Obs}.

    Plans are deterministic by construction: triggers match on exact
    hit counts and the registry holds no clock or randomness, so the
    same plan against the same code path trips the same faults in the
    same order, every run.

    The registry is domain-safe: hit counters and the trip tally are
    serialized behind an internal mutex (sites like ["engine.worker"]
    fire concurrently from the engine's Domain pool), and a firing
    {!hit} reports the hit number it matched rather than re-reading a
    counter other domains may advance. The disabled path is still a
    single ref read. *)

(** What happens when a trigger fires. *)
type action =
  | Trip  (** raise {!Injected} (via {!trip}) / exhaust with kind
              [Injected] (via {!hit} at a solver site) *)
  | Exhaust of Solver_error.budget_kind
      (** solver sites report budget exhaustion of this kind *)
  | Blowup_bits of int
      (** solver sites behave as if a pivot coefficient reached this
          many bits, tripping any [max_bits] ceiling *)

type trigger = {
  site : string;
  hits : int;  (** fire on the [hits]-th call at [site] (1-based);
                   [0] fires on {e every} call *)
  action : action;
}

type plan

val plan : trigger list -> plan
(** Fresh plan with all hit counters at zero. *)

exception Injected of { site : string; hit : int }
(** Raised by {!trip} (and by {!hit} at non-solver call sites that
    choose to re-raise). Carries the site and the 1-based hit number
    that fired. *)

val install : plan option -> unit
(** Install or remove the ambient plan. *)

val with_plan : plan -> (unit -> 'a) -> 'a
(** Run with [p] ambient, restoring the previous plan on exit (also on
    exceptions). *)

val enabled : unit -> bool

val hit : string -> action option
(** [hit site] counts one hit at [site] and returns the action of the
    first matching trigger, if any fires now. Bumps the
    ["fault.trips"] counter when a trigger fires. No plan installed:
    returns [None] after one ref read. *)

val trip : string -> unit
(** [trip site] is [hit site] for sites with no budget machinery:
    any firing trigger raises {!Injected}. *)

val trips : plan -> int
(** Total triggers fired so far under this plan. *)
