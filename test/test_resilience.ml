(* Tests for lib/resilience and its threading through the solve stack:
   budgets (deadline / pivots / bits) surfacing as typed Exhausted
   values, the deterministic fault-injection registry, and the serve
   degradation ladder — every rung of which must still release a
   certified α-DP mechanism. *)

let q = Rat.of_ints

module B = Resilience.Budget
module F = Resilience.Fault
module E = Resilience.Solver_error

(* A fake clock that advances 1 ms on every read, so deadlines expire
   after a deterministic number of budget checks. *)
let ticking_clock ?(step_ns = 1_000_000L) () =
  let fc = Obs.Clock.Fake.create () in
  fun () ->
    Obs.Clock.Fake.advance fc step_ns;
    Obs.Clock.Fake.clock fc ()

(* A pure-inequality LP: the slack crash basis covers every row, phase 1
   is skipped, and every budget check happens at "simplex.phase2". *)
let box_lp () =
  let p = Lp.make () in
  let x = Lp.fresh_var ~name:"x" p in
  let y = Lp.fresh_var ~name:"y" p in
  let z = Lp.fresh_var ~name:"z" p in
  List.iter (fun v -> Lp.add_le p (Lp.Expr.var v) Rat.one) [ x; y; z ];
  Lp.set_objective p Lp.Maximize Lp.Expr.(add (var x) (add (var y) (var z)));
  p

let consumer ?(n = 5) loss = Minimax.Consumer.make ~loss ~side_info:(Minimax.Side_info.full n) ()

(* ------------------------------------------------------------------ *)
(* Budgets                                                            *)
(* ------------------------------------------------------------------ *)

let test_budget_check_order () =
  (* Deterministic dimensions are tested before the clock: a solve that
     blew both caps reports Pivots, not Deadline. *)
  let clock = ticking_clock () in
  let b = B.make ~clock ~deadline_ms:0 ~max_pivots:10 ~max_bits:64 () in
  (match B.check b ~pivots:10 ~peak_bits:9999 with
   | Some E.Pivots -> ()
   | _ -> Alcotest.fail "pivot cap must win over bits and deadline");
  (match B.check b ~pivots:3 ~peak_bits:9999 with
   | Some E.Bits -> ()
   | _ -> Alcotest.fail "bit ceiling must win over the deadline");
  match B.check b ~pivots:3 ~peak_bits:8 with
  | Some E.Deadline -> ()
  | _ -> Alcotest.fail "expired deadline must fire"

let test_deadline_mid_phase2 () =
  (* deadline_ms:2 on a clock ticking 1 ms per read: Budget.make reads
     once (t=1ms, deadline 3ms); phase-2 checks read at 2,3,4ms — the
     third check fires, after two real pivots, mid-phase-2. *)
  let clock = ticking_clock () in
  let budget = B.make ~clock ~deadline_ms:2 () in
  match Lp.solve ~budget (box_lp ()) with
  | Lp.Failed (E.Exhausted ex) ->
    Alcotest.(check string) "site" "simplex.phase2" ex.E.site;
    (match ex.E.kind with
     | E.Deadline -> ()
     | k -> Alcotest.fail ("wrong kind: " ^ E.to_string (E.Exhausted { ex with E.kind = k })));
    Alcotest.(check bool) "some pivots were spent first" true (ex.E.pivots > 0)
  | Lp.Failed e -> Alcotest.fail (E.to_string e)
  | Lp.Optimal _ -> Alcotest.fail "deadline never fired"

let test_pivot_budget_appendix_b () =
  (* The Appendix-B world: n=2, α=1/2 — with the degenerate zero-one
     loss the tailored LP stalls through ties, so a 3-pivot allowance
     runs out and the error reports exactly the pivots granted. *)
  let c = consumer ~n:2 Minimax.Loss.zero_one in
  let budget = B.make ~max_pivots:3 () in
  match Minimax.Optimal_mechanism.solve_budgeted ~budget ~alpha:(q 1 2) c with
  | Error (E.Exhausted ex) ->
    (match ex.E.kind with
     | E.Pivots -> ()
     | _ -> Alcotest.fail "expected pivot exhaustion");
    Alcotest.(check int) "spent exactly the allowance" 3 ex.E.pivots
  | Error e -> Alcotest.fail (E.to_string e)
  | Ok _ -> Alcotest.fail "3 pivots cannot solve the tailored LP"

let test_unbudgeted_solve_unchanged () =
  (* No budget, no plan: the guarded path must not perturb results. *)
  match Lp.solve (box_lp ()) with
  | Lp.Optimal s -> Alcotest.(check bool) "objective 3" true (Rat.equal s.Lp.objective (q 3 1))
  | Lp.Failed e -> Alcotest.fail (E.to_string e)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

let test_fault_exhausts_lp () =
  let plan = F.plan [ { F.site = "simplex.phase2"; hits = 1; action = F.Exhaust E.Pivots } ] in
  (F.with_plan plan @@ fun () ->
   match Lp.solve (box_lp ()) with
   | Lp.Failed (E.Exhausted ex) ->
     Alcotest.(check string) "site" "simplex.phase2" ex.E.site;
     (match ex.E.kind with
      | E.Pivots -> ()
      | _ -> Alcotest.fail "injected kind must surface")
   | _ -> Alcotest.fail "fault did not fire");
  Alcotest.(check int) "one trip recorded" 1 (F.trips plan);
  Alcotest.(check bool) "plan uninstalled after with_plan" false (F.enabled ())

let test_fault_trip_raises () =
  let plan = F.plan [ { F.site = "mech.factor"; hits = 1; action = F.Trip } ] in
  let alpha = q 1 2 in
  let g = Mech.Geometric.matrix ~n:3 ~alpha in
  match F.with_plan plan (fun () -> Mech.Derivability.factor ~alpha g) with
  | exception F.Injected { site = "mech.factor"; hit = 1 } -> ()
  | exception F.Injected _ -> Alcotest.fail "wrong site/hit in Injected"
  | _ -> Alcotest.fail "trip site did not raise"

let test_fault_blowup_bits () =
  (* Blowup_bits fakes a huge pivot coefficient; only a max_bits budget
     notices, and reports Bits exhaustion at the faulted site. *)
  let plan = F.plan [ { F.site = "simplex.phase2"; hits = 1; action = F.Blowup_bits 10_000 } ] in
  let budget = B.make ~max_bits:1_000 () in
  F.with_plan plan @@ fun () ->
  match Lp.solve ~budget (box_lp ()) with
  | Lp.Failed (E.Exhausted ex) ->
    (match ex.E.kind with
     | E.Bits -> ()
     | _ -> Alcotest.fail "expected bit-ceiling exhaustion");
    Alcotest.(check bool) "peak_bits records the blowup" true (ex.E.peak_bits >= 10_000)
  | _ -> Alcotest.fail "bit blowup did not trip the ceiling"

(* ------------------------------------------------------------------ *)
(* Serve ladder                                                       *)
(* ------------------------------------------------------------------ *)

module S = Minimax.Serve

let alpha_dp_certified (s : S.served) =
  Check.Invariants.passed
    (Check.Invariants.alpha_dp ~alpha:s.S.provenance.S.alpha (Mech.Mechanism.matrix s.S.mechanism))

let audit_rules = [ "row-stochastic"; "alpha-dp"; "derivable" ]

let test_ladder_tailored () =
  (* The tailored LP is no longer a rung: an unbudgeted serve lands on
     geometric+remap, undegraded, and Theorem 1 makes its loss the
     tailored optimum exactly. *)
  let c = consumer Minimax.Loss.absolute in
  let s = S.serve ~alpha:(q 1 2) c in
  (match s.S.provenance.S.rung with
   | S.Geometric_remap -> ()
   | r -> Alcotest.fail ("expected geometric+remap, got " ^ S.rung_to_string r));
  Alcotest.(check int) "no degradations" 0 (List.length s.S.provenance.S.attempts);
  Alcotest.(check (list string)) "audited rules" audit_rules s.S.provenance.S.checks;
  Alcotest.(check bool) "alpha-dp certified" true (alpha_dp_certified s);
  let tailored = Minimax.Optimal_mechanism.solve ~alpha:(q 1 2) c in
  Alcotest.(check bool) "loss equals the tailored optimum (Theorem 1)" true
    (Rat.equal s.S.loss tailored.Minimax.Optimal_mechanism.loss)

let test_ladder_remap () =
  (* A 30-pivot budget starves the tailored LP but fits the smaller
     interaction LP: the ladder serves geometric+remap undegraded. *)
  let c = consumer Minimax.Loss.absolute in
  (match
     Minimax.Optimal_mechanism.solve_budgeted ~budget:(B.make ~max_pivots:30 ()) ~alpha:(q 1 2) c
   with
   | Error (E.Exhausted _) -> ()
   | _ -> Alcotest.fail "30 pivots should not finish the tailored LP");
  let s = S.serve ~budget:(B.make ~max_pivots:30 ()) ~alpha:(q 1 2) c in
  (match s.S.provenance.S.rung with
   | S.Geometric_remap -> ()
   | r -> Alcotest.fail ("expected geometric+remap, got " ^ S.rung_to_string r));
  Alcotest.(check int) "no degradations" 0 (List.length s.S.provenance.S.attempts);
  Alcotest.(check bool) "alpha-dp certified" true (alpha_dp_certified s);
  (* Exhaust only the FIRST phase-2 visit: the remap's one LP dies and
     the ladder descends to raw G(n,α), recording why. *)
  let plan = F.plan [ { F.site = "simplex.phase2"; hits = 1; action = F.Exhaust E.Pivots } ] in
  let s = F.with_plan plan @@ fun () -> S.serve ~alpha:(q 1 2) c in
  (match s.S.provenance.S.rung with
   | S.Geometric_raw -> ()
   | r -> Alcotest.fail ("expected raw geometric, got " ^ S.rung_to_string r));
  (match s.S.provenance.S.attempts with
   | [ { S.attempted = S.Geometric_remap; reason = S.Solver (E.Exhausted _) } ] -> ()
   | _ -> Alcotest.fail "attempts must record the remap exhaustion");
  Alcotest.(check int) "one trip" 1 (F.trips plan);
  Alcotest.(check bool) "alpha-dp certified" true (alpha_dp_certified s)

let test_ladder_raw () =
  (* Exhaust EVERY visit to both simplex sites, or starve the remap of
     pivots: either way the ladder bottoms out at raw G(n,α) — still
     certified, derivability included. *)
  let plan =
    F.plan
      [
        { F.site = "simplex.phase1"; hits = 0; action = F.Exhaust E.Pivots };
        { F.site = "simplex.phase2"; hits = 0; action = F.Exhaust E.Pivots };
      ]
  in
  let faulted = F.with_plan plan @@ fun () -> S.serve ~alpha:(q 1 2) (consumer Minimax.Loss.absolute) in
  let starved =
    S.serve ~budget:(B.make ~max_pivots:3 ()) ~alpha:(q 1 2) (consumer Minimax.Loss.absolute)
  in
  List.iter
    (fun (label, s) ->
      (match s.S.provenance.S.rung with
       | S.Geometric_raw -> ()
       | r -> Alcotest.fail (label ^ ": expected raw geometric, got " ^ S.rung_to_string r));
      (match s.S.provenance.S.attempts with
       | [ { S.attempted = S.Geometric_remap; reason = S.Solver (E.Exhausted ex) } ] ->
         (match ex.E.kind with
          | E.Pivots -> ()
          | _ -> Alcotest.fail (label ^ ": expected pivot exhaustion"))
       | _ -> Alcotest.fail (label ^ ": attempts must record the failed remap"));
      Alcotest.(check (list string)) (label ^ ": audited rules") audit_rules
        s.S.provenance.S.checks;
      Alcotest.(check bool) (label ^ ": alpha-dp certified") true (alpha_dp_certified s))
    [ ("fault plan", faulted); ("3-pivot budget", starved) ];
  Alcotest.(check int) "starved budget charged to the provenance" 3
    starved.S.provenance.S.pivots_spent

let test_ladder_all_rungs_alpha_dp () =
  (* Property: whatever the failure pattern and consumer, the released
     mechanism passes the independent α-DP check. *)
  let plans =
    [
      None;
      Some (F.plan [ { F.site = "simplex.phase2"; hits = 1; action = F.Exhaust E.Pivots } ]);
      Some (F.plan [ { F.site = "simplex.phase1"; hits = 0; action = F.Exhaust E.Deadline } ]);
      Some
        (F.plan
           [
             { F.site = "simplex.phase1"; hits = 0; action = F.Exhaust E.Pivots };
             { F.site = "simplex.phase2"; hits = 0; action = F.Exhaust E.Pivots };
           ]);
    ]
  in
  let losses = [ Minimax.Loss.absolute; Minimax.Loss.squared; Minimax.Loss.zero_one ] in
  List.iter
    (fun loss ->
      List.iter
        (fun plan ->
          let run () = S.serve ~alpha:(q 1 3) (consumer ~n:4 loss) in
          let s = match plan with None -> run () | Some p -> F.with_plan p run in
          Alcotest.(check bool)
            (Printf.sprintf "alpha-dp at rung %s for %s" (S.rung_to_string s.S.provenance.S.rung)
               (Minimax.Loss.name loss))
            true (alpha_dp_certified s))
        plans)
    losses

let test_provenance_deterministic () =
  (* Same plan, same consumer: byte-identical provenance, twice. *)
  let mk_plan () =
    F.plan
      [
        { F.site = "simplex.phase1"; hits = 0; action = F.Exhaust E.Pivots };
        { F.site = "simplex.phase2"; hits = 0; action = F.Exhaust E.Pivots };
      ]
  in
  let run () =
    F.with_plan (mk_plan ()) @@ fun () ->
    S.provenance_to_string (S.serve ~alpha:(q 1 2) (consumer Minimax.Loss.absolute)).S.provenance
  in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical provenance" a b;
  (* And it names the rung and the abandoned remap, and no retired
     rung. *)
  let mentions needle = Str.string_match (Str.regexp (".*" ^ Str.quote needle)) a 0 in
  List.iter
    (fun needle -> Alcotest.(check bool) ("mentions " ^ needle) true (mentions needle))
    [ "rung=geometric"; "geometric+remap:exhausted"; "kind=pivots" ];
  Alcotest.(check bool) "no tailored attempt" false (mentions "tailored")

let test_deadline_shared_across_rungs () =
  (* One already-expired deadline starves the remap's LP; the ladder
     still releases raw G(n,α) and charges the failure to it. *)
  let clock = ticking_clock () in
  let budget = B.make ~clock ~deadline_ms:0 () in
  let s = S.serve ~budget ~alpha:(q 1 2) (consumer Minimax.Loss.absolute) in
  (match s.S.provenance.S.rung with
   | S.Geometric_raw -> ()
   | r -> Alcotest.fail ("expected raw geometric, got " ^ S.rung_to_string r));
  Alcotest.(check bool) "alpha-dp certified" true (alpha_dp_certified s)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "check order" `Quick test_budget_check_order;
          Alcotest.test_case "deadline mid-phase-2" `Quick test_deadline_mid_phase2;
          Alcotest.test_case "pivot budget (Appendix B)" `Quick test_pivot_budget_appendix_b;
          Alcotest.test_case "unbudgeted unchanged" `Quick test_unbudgeted_solve_unchanged;
        ] );
      ( "fault",
        [
          Alcotest.test_case "exhausts LP" `Quick test_fault_exhausts_lp;
          Alcotest.test_case "trip raises" `Quick test_fault_trip_raises;
          Alcotest.test_case "bit blowup" `Quick test_fault_blowup_bits;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "tailored" `Quick test_ladder_tailored;
          Alcotest.test_case "remap" `Quick test_ladder_remap;
          Alcotest.test_case "raw geometric" `Quick test_ladder_raw;
          Alcotest.test_case "all rungs alpha-dp" `Quick test_ladder_all_rungs_alpha_dp;
          Alcotest.test_case "provenance deterministic" `Quick test_provenance_deterministic;
          Alcotest.test_case "deadline shared across rungs" `Quick test_deadline_shared_across_rungs;
        ] );
    ]
