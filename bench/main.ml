(* Experiment and benchmark harness.

   Regenerates every table and figure of the paper (see the
   experiment index in DESIGN.md), runs the synthesized evaluation
   sweeps that computationally verify the theorems, and finishes with
   Bechamel micro-benchmarks of the stack.

   Usage:
     dune exec bench/main.exe                 # all experiments + perf
     dune exec bench/main.exe -- fig1         # one experiment (name or id: F1)
     dune exec bench/main.exe -- --list       # list experiment ids
     dune exec bench/main.exe -- perf         # micro-benchmarks only
     dune exec bench/main.exe -- --bench-json FILE [name...]
                                              # machine-readable trajectory
     --no-obs                                 # run without the observability
                                                recorder (overhead baseline)

   Unless --no-obs is given, each experiment runs with an ambient
   Obs recorder and its machine-readable record (wall time, simplex
   pivot count, max coefficient bits, ...) is printed as a
   "BENCH {...}" line; --bench-json additionally collects the records
   into a single trajectory document. *)

module M = Mech.Mechanism
module Geo = Mech.Geometric
module Der = Mech.Derivability
module Base = Mech.Baselines
module L = Minimax.Loss
module Si = Minimax.Side_info
module C = Minimax.Consumer
module Om = Minimax.Optimal_mechanism
module U = Minimax.Universal
module Ml = Minimax.Multi_level
module Bay = Minimax.Bayesian
module Qm = Linalg.Matrix.Q
module T = Report.Table
module E = Report.Experiment

module Json = Obs.Json

let q = Rat.of_ints
let dec = Rat.to_decimal_string

(* Monotonic seconds for in-experiment timing tables (the harness's
   own per-experiment timing lives in Report.Experiment). *)
let now_s () = Int64.to_float (Obs.Clock.monotonic ()) /. 1e9

let buf_table ?(title = "") t =
  (if title = "" then "" else title ^ "\n") ^ T.render t ^ "\n"

(* ================================================================= *)
(* F1 — Figure 1: geometric pmf, alpha = 0.2, true result 5          *)
(* ================================================================= *)

let fig1 =
  E.make ~id:"F1" ~title:"Figure 1: geometric output distribution (α=0.2, result 5)"
    ~paper_claim:"two-sided geometric pmf centred at 5, mass (1-α)/(1+α)·α^{|z-5|}"
    (fun () ->
      let alpha = q 1 5 in
      let center = 5 in
      let rows =
        List.init 21 (fun i ->
            let z = i - 5 in
            let mass = Geo.unbounded_pmf ~alpha ~center z in
            [ string_of_int z; Rat.to_string mass; dec ~places:6 mass ])
      in
      let table = T.make ~headers:[ "output z"; "exact mass"; "decimal" ] rows in
      (* Verify: symmetry around the centre, peak at the centre, total
         mass of the infinite series = 1 (closed form check on tails). *)
      let symmetric =
        List.for_all
          (fun d ->
            Rat.equal (Geo.unbounded_pmf ~alpha ~center (center - d))
              (Geo.unbounded_pmf ~alpha ~center (center + d)))
          [ 1; 2; 3; 7 ]
      in
      let peak = Geo.unbounded_pmf ~alpha ~center center in
      let peaked =
        Rat.compare peak (Geo.unbounded_pmf ~alpha ~center (center + 1)) > 0
      in
      (* total mass: peak·(1 + 2·Σ_{k>=1} α^k) = peak·(1 + 2α/(1-α)) *)
      let total =
        Rat.mul peak (Rat.add Rat.one (Rat.div (Rat.mul Rat.two alpha) (Rat.sub Rat.one alpha)))
      in
      let normalized = Rat.is_one total in
      let verdict =
        if symmetric && peaked && normalized then E.Pass
        else E.Fail "pmf shape properties violated"
      in
      (verdict, buf_table ~title:"series for Figure 1 (z from 0 to 20):" table))

(* ================================================================= *)
(* T1 — Table 1: optimal mechanism, geometric factor, interaction    *)
(* ================================================================= *)

let table1 =
  E.make ~id:"T1" ~title:"Table 1: optimal mechanism = geometric × consumer interaction"
    ~paper_claim:
      "consumer l(i,r)=|i-r|, S={0..3}, n=3, α=1/4: optimal mechanism (a) factors into \
       G(3,α) (b) times a consumer post-processing (c) with shape [[p,1-p,0,0],I₂,[0,0,1-p,p]]"
    (fun () ->
      let n = 3 in
      let alpha = q 1 4 in
      let consumer = C.make ~loss:L.absolute ~side_info:(Si.full n) () in
      let tailored = Om.solve_structured ~alpha consumer in
      let cmp = U.compare_for ~alpha consumer in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (buf_table ~title:"(a) optimal mechanism for the consumer (exact LP):"
           (T.of_mechanism tailored.Om.mechanism));
      Buffer.add_string buf
        (buf_table
           ~title:"(a) same, decimal (compare with the paper's ≈[0.667 0.294 0.04 0.0102] row):"
           (T.of_mechanism ~places:4 tailored.Om.mechanism));
      Buffer.add_string buf
        (buf_table ~title:"(b) range-restricted geometric G(3,1/4):"
           (T.of_mechanism (Geo.matrix ~n ~alpha)));
      Buffer.add_string buf
        (buf_table ~title:"(c) optimal consumer interaction T:" (T.of_rat_matrix cmp.U.interaction));
      (* Verification battery. *)
      let checks =
        [
          ("optimal mechanism is α-DP", M.is_dp ~alpha tailored.Om.mechanism);
          ("interaction is row-stochastic", Qm.is_row_stochastic cmp.U.interaction);
          ( "G · T equals the optimal mechanism",
            M.equal cmp.U.induced tailored.Om.mechanism );
          ("universality: losses equal", U.universality_holds cmp);
          ( "interaction is genuinely randomized (minimax needs randomness)",
            not (Bay.is_deterministic cmp.U.interaction) );
          ( "interaction zero-pattern matches Table 1(c)",
            let t = cmp.U.interaction in
            Rat.is_zero t.(0).(2) && Rat.is_zero t.(0).(3) && Rat.is_one t.(1).(1)
            && Rat.is_one t.(2).(2) && Rat.is_zero t.(3).(0) && Rat.is_zero t.(3).(1) );
        ]
      in
      List.iter
        (fun (name, ok) ->
          Buffer.add_string buf
            (Printf.sprintf "  check: %-55s %s\n" name (if ok then "ok" else "FAILED")))
        checks;
      Buffer.add_string buf
        (Printf.sprintf
           "  minimax loss: tailored=%s universal=%s naive(geometric, no interaction)=%s\n"
           (Rat.to_string cmp.U.tailored_loss) (Rat.to_string cmp.U.universal_loss)
           (Rat.to_string cmp.U.naive_loss));
      let verdict =
        if List.for_all snd checks then E.Pass else E.Fail "a Table-1 check failed"
      in
      (verdict, Buffer.contents buf))

(* ================================================================= *)
(* T2 — Table 2: G(n,α) and G'(n,α)                                  *)
(* ================================================================= *)

let table2 =
  E.make ~id:"T2" ~title:"Table 2: the range-restricted geometric matrix and its scaling"
    ~paper_claim:
      "G(n,α) has boundary mass α^{|z-k|}/(1+α), interior mass (1-α)α^{|z-k|}/(1+α); \
       G'(n,α) = [α^{|i-j|}]"
    (fun () ->
      let n = 4 in
      let alpha = q 1 2 in
      let g = Geo.matrix ~n ~alpha in
      let g' = Geo.scaled_matrix ~n ~alpha in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf (buf_table ~title:"G(4,1/2):" (T.of_mechanism g));
      Buffer.add_string buf (buf_table ~title:"G'(4,1/2) = [α^{|i-j|}]:" (T.of_rat_matrix g'));
      let entry_check = ref true in
      for i = 0 to n do
        for j = 0 to n do
          if not (Rat.equal g'.(i).(j) (Rat.pow alpha (abs (i - j)))) then entry_check := false;
          (* column scaling relation: G' = G with columns 0,n scaled by
             (1+α) and interior columns by (1+α)/(1-α). *)
          let scale =
            if j = 0 || j = n then Rat.add Rat.one alpha
            else Rat.div (Rat.add Rat.one alpha) (Rat.sub Rat.one alpha)
          in
          if not (Rat.equal g'.(i).(j) (Rat.mul scale (M.prob g ~input:i ~output:j))) then
            entry_check := false
        done
      done;
      let dp_ok = M.is_dp ~alpha g in
      Buffer.add_string buf
        (Printf.sprintf "  check: entries and column scaling: %s\n" (if !entry_check then "ok" else "FAILED"));
      Buffer.add_string buf
        (Printf.sprintf "  check: G is α-DP at its own α: %s\n" (if dp_ok then "ok" else "FAILED"));
      ( (if !entry_check && dp_ok then E.Pass else E.Fail "matrix structure check failed"),
        Buffer.contents buf ))

(* ================================================================= *)
(* B — Appendix B: DP mechanism not derivable from the geometric     *)
(* ================================================================= *)

let appendix_b =
  E.make ~id:"B" ~title:"Appendix B: a 1/2-DP mechanism not derivable from G(3,1/2)"
    ~paper_claim:
      "the 4×4 mechanism M is 1/2-DP but (1+α²)M(1,1) − α(M(0,1)+M(2,1)) = −0.75/9 < 0"
    (fun () ->
      let alpha = q 1 2 in
      let m = Der.appendix_b_mechanism () in
      let buf = Buffer.create 512 in
      Buffer.add_string buf (buf_table ~title:"M (Appendix B):" (T.of_mechanism m));
      let is_dp = M.is_dp ~alpha m in
      let derivable = Der.is_derivable ~alpha m in
      (match Der.derive ~alpha m with
       | Der.Derivable _ -> ()
       | Der.Not_derivable violations ->
         List.iter
           (fun v ->
             Buffer.add_string buf
               (Printf.sprintf "  violation: column %d rows %d..%d slack %s (= %s)\n" v.Der.column
                  (v.Der.row - 1) (v.Der.row + 1) (Rat.to_string v.Der.slack)
                  (dec ~places:6 v.Der.slack)))
           violations);
      let witness =
        match Der.derive ~alpha m with
        | Der.Not_derivable vs ->
          List.exists
            (fun v -> v.Der.column = 1 && v.Der.row = 1 && Rat.equal v.Der.slack (q (-1) 12))
            vs
        | Der.Derivable _ -> false
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  M is 1/2-DP: %b; derivable from G(3,1/2): %b; paper witness slack -1/12 found: %b\n"
           is_dp derivable witness);
      ( (if is_dp && (not derivable) && witness then E.Pass
         else E.Fail "Appendix B reproduction failed"),
        Buffer.contents buf ))

(* ================================================================= *)
(* L1 — Lemma 1: det G'(n,α) = (1−α²)^n                              *)
(* ================================================================= *)

let lemma1 =
  E.make ~id:"L1" ~title:"Lemma 1: determinant of the scaled geometric matrix"
    ~paper_claim:"det G'(m,α) = (1−α²)^(m−1) for the m×m matrix (paper's induction)"
    (fun () ->
      let alphas = [ q 1 10; q 1 4; q 1 2; q 2 3; q 9 10 ] in
      let ns = [ 1; 2; 3; 5; 8; 12 ] in
      let ok = ref true in
      let rows =
        List.concat_map
          (fun n ->
            List.map
              (fun alpha ->
                let computed = Lp_oracle.Q.determinant (Geo.scaled_matrix ~n ~alpha) in
                let formula = Geo.scaled_determinant ~n ~alpha in
                let agree = Rat.equal computed formula in
                if not agree then ok := false;
                [
                  string_of_int (n + 1);
                  Rat.to_string alpha;
                  Rat.to_string computed;
                  (if agree then "ok" else "MISMATCH");
                ])
              alphas)
          ns
      in
      let table = T.make ~headers:[ "matrix dim"; "alpha"; "det G'"; "= (1-α²)^(dim-1)?" ] rows in
      ((if !ok then E.Pass else E.Fail "determinant formula mismatch"), buf_table table))

(* ================================================================= *)
(* L3 — Lemma 3: adding privacy via stochastic post-processing       *)
(* ================================================================= *)

let lemma3 =
  E.make ~id:"L3" ~title:"Lemma 3: G(n,β) = G(n,α)·T with stochastic T, for α ≤ β"
    ~paper_claim:"privacy can be added by public post-processing; never removed"
    (fun () ->
      let n = 5 in
      let grid = [ q 1 10; q 1 4; q 1 2; q 3 4; q 9 10 ] in
      let ok = ref true in
      let rows =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                if Rat.compare a b > 0 then None
                else begin
                  let t = Ml.transition ~n ~alpha:a ~beta:b in
                  let stochastic = Qm.is_row_stochastic t in
                  let factors =
                    Qm.equal
                      (Qm.mul (M.matrix (Geo.matrix ~n ~alpha:a)) t)
                      (M.matrix (Geo.matrix ~n ~alpha:b))
                  in
                  if not (stochastic && factors) then ok := false;
                  Some
                    [
                      Rat.to_string a;
                      Rat.to_string b;
                      string_of_bool stochastic;
                      string_of_bool factors;
                    ]
                end)
              grid)
          grid
      in
      (* converse: for α > β the factor must NOT be stochastic. *)
      let converse =
        let g_strong = Geo.matrix ~n ~alpha:(q 1 4) in
        not (Der.is_derivable ~alpha:(q 3 4) g_strong)
      in
      let table =
        T.make ~headers:[ "α (deployed)"; "β (target)"; "T stochastic"; "G_α·T = G_β" ] rows
      in
      let detail =
        buf_table table
        ^ Printf.sprintf
            "  converse (privacy cannot be removed: G(1/4) not derivable from G(3/4)): %b\n"
            converse
      in
      ((if !ok && converse then E.Pass else E.Fail "Lemma 3 grid failed"), detail))

(* ================================================================= *)
(* THM1 — universality sweep                                         *)
(* ================================================================= *)

let universality =
  E.make ~id:"THM1" ~title:"Theorem 1(2): geometric + rational interaction = tailored optimum"
    ~paper_claim:
      "for EVERY minimax consumer (any monotone loss, any side information) the deployed \
       geometric mechanism, post-processed optimally by the consumer, attains exactly the \
       loss of the α-DP mechanism tailored to that consumer"
    (fun () ->
      let losses =
        [
          L.absolute;
          L.squared;
          L.zero_one;
          L.asymmetric ~over:Rat.one ~under:(q 3 1);
          L.capped ~cap:2;
        ]
      in
      let alphas = [ q 1 4; q 1 2; q 3 4 ] in
      let ns = [ 3; 5; 7 ] in
      let total = ref 0 and equal = ref 0 in
      let rows = ref [] in
      (* One solver session across the whole grid, α innermost: the LP
         shape depends on (n, side info) only, so consecutive solves
         share a cached basis and warm-start. The checked equality is a
         value equality, insensitive to which optimal vertex a warm
         solve reports. *)
      let solver = Lp.Solver.create () in
      List.iter
        (fun n ->
          List.iter
            (fun loss ->
              List.iter
                (fun side_info ->
                  List.iter
                    (fun alpha ->
                      let cmp =
                        U.compare_for ~solver ~alpha (C.make ~loss ~side_info ())
                      in
                      incr total;
                      if U.universality_holds cmp then incr equal
                      else
                        rows :=
                          [
                            string_of_int n;
                            Rat.to_string alpha;
                            C.label cmp.U.consumer;
                            Rat.to_string cmp.U.tailored_loss;
                            Rat.to_string cmp.U.universal_loss;
                          ]
                          :: !rows)
                    alphas)
                (U.default_side_infos n))
            losses)
        ns;
      let detail =
        Printf.sprintf "  consumers checked: %d; exact equality: %d\n" !total !equal
        ^
        if !rows = [] then ""
        else
          buf_table ~title:"MISMATCHES:"
            (T.make ~headers:[ "n"; "alpha"; "consumer"; "tailored"; "universal" ] !rows)
      in
      ((if !total = !equal then E.Pass else E.Fail "universality mismatch"), detail))

(* ================================================================= *)
(* THM1b — baseline comparison                                       *)
(* ================================================================= *)

let baselines =
  E.make ~id:"THM1b" ~title:"Baselines: universal geometric vs naive / Laplace / RR / exponential"
    ~paper_claim:
      "(synthesized evaluation) the geometric-with-interaction pipeline weakly dominates \
       every classic α-DP baseline for every consumer; baselines lose more as side \
       information sharpens"
    (fun () ->
      let n = 6 in
      let alpha = q 1 4 in
      (* α = 1/4 has rational sqrt 1/2, so the exponential baseline is available. *)
      let expo =
        match Base.exponential_dp ~n ~alpha with
        | Some m -> m
        | None -> failwith "alpha=1/4 must have a rational sqrt"
      in
      let rr = Base.randomized_response_dp ~n ~alpha in
      let lap = Base.truncated_laplace ~n ~alpha in
      let side_infos =
        [
          ("full {0..6}", Si.full n);
          ("at least 3", Si.at_least ~n 3);
          ("interval {2..4}", Si.interval ~n 2 4);
        ]
      in
      let ok = ref true in
      let rows =
        List.concat_map
          (fun loss ->
            List.map
              (fun (si_name, si) ->
                let consumer = C.make ~loss ~side_info:si () in
                let cmp = U.compare_for ~alpha consumer in
                let opt = cmp.U.universal_loss in
                let check m = C.minimax_loss consumer m in
                let naive = cmp.U.naive_loss in
                let l_rr = check rr and l_lap = check lap and l_exp = check expo in
                if
                  Rat.compare opt naive > 0 || Rat.compare opt l_rr > 0
                  || Rat.compare opt l_exp > 0
                then ok := false;
                [
                  L.name loss;
                  si_name;
                  dec ~places:4 opt;
                  dec ~places:4 naive;
                  dec ~places:4 l_rr;
                  dec ~places:4 l_exp;
                  dec ~places:4 l_lap;
                ])
              side_infos)
          [ L.absolute; L.squared; L.zero_one ]
      in
      let table =
        T.make
          ~headers:
            [
              "loss";
              "side info";
              "geo+interact";
              "geo naive";
              "rand-resp";
              "exponential";
              "trunc-laplace*";
            ]
          rows
      in
      let detail =
        buf_table table
        ^ "  (*) truncated Laplace renormalizes tails and is weaker than α-DP at the \
           nominal level — reported for context, excluded from the dominance check.\n"
      in
      ((if !ok then E.Pass else E.Fail "a baseline beat the optimal mechanism"), detail))

(* ================================================================= *)
(* ALG1 — multi-level release & collusion resistance                 *)
(* ================================================================= *)

let collusion =
  E.make ~id:"ALG1" ~title:"Algorithm 1: multi-level release, collusion resistance (Lemma 4)"
    ~paper_claim:
      "correlated cascade releases r₁…r_k with marginal G(n,αᵢ) each; colluders learn \
       exactly what the least-private result alone reveals; independent releases leak"
    (fun () ->
      let n = 4 in
      let levels = [ q 1 4; q 1 2; q 3 4 ] in
      let plan = Ml.make_plan ~n ~levels in
      let buf = Buffer.create 1024 in
      (* 1. exact marginals *)
      let marginals_ok =
        List.for_all
          (fun i ->
            M.equal (Ml.stage_marginal plan i) (Geo.matrix ~n ~alpha:(List.nth levels i)))
          [ 0; 1; 2 ]
      in
      Buffer.add_string buf
        (Printf.sprintf "  exact stage marginals equal G(n,αᵢ): %b\n" marginals_ok);
      (* 2. exact collusion resistance: joint posterior = weakest-member posterior *)
      let collusion_ok = ref true in
      for r1 = 0 to n do
        for r2 = 0 to n do
          match
            ( Ml.posterior plan ~observed:[ (0, r1); (1, r2) ],
              Ml.posterior plan ~observed:[ (0, r1) ] )
          with
          | Some joint, Some single ->
            if not (Array.for_all2 Rat.equal joint single) then collusion_ok := false
          | None, _ -> ()
          | Some _, None -> collusion_ok := false
        done
      done;
      Buffer.add_string buf
        (Printf.sprintf "  posterior(r₁,r₂) = posterior(r₁) for all observations: %b\n"
           !collusion_ok);
      (* 3. contrast: independent releases sharpen the posterior *)
      let g = Geo.matrix ~n ~alpha:(q 1 4) in
      let indep_posterior k r =
        let raw = Array.init (n + 1) (fun i -> Rat.pow (M.prob g ~input:i ~output:r) k) in
        let tot = Array.fold_left Rat.add Rat.zero raw in
        Array.map (fun x -> Rat.div x tot) raw
      in
      let leak =
        not (Array.for_all2 Rat.equal (indep_posterior 2 0) (indep_posterior 1 0))
      in
      Buffer.add_string buf
        (Printf.sprintf "  naive independent releases sharpen the posterior (leak): %b\n" leak);
      (* 4. Monte-Carlo: sampled cascade matches marginals *)
      let rng = Prob.Rng.of_int 20100613 in
      let trials = 20_000 in
      let input = 2 in
      let samples = Array.init trials (fun _ -> Ml.release plan ~true_result:input rng) in
      let fits_all =
        List.for_all
          (fun i ->
            let xs = Array.map (fun r -> r.(i)) samples in
            Prob.Stats.fits xs
              (Prob.Discrete.of_rat_row
                 (M.row (Geo.matrix ~n ~alpha:(List.nth levels i)) input)))
          [ 0; 1; 2 ]
      in
      Buffer.add_string buf
        (Printf.sprintf "  Monte-Carlo (%d trials): per-level empirical marginals pass χ²: %b\n"
           trials fits_all);
      (* 5. report a sample release *)
      let sample = Ml.release plan ~true_result:input rng in
      Buffer.add_string buf
        (Printf.sprintf
           "  example release for true count %d: executives=%d, partners=%d, internet=%d\n"
           input sample.(0) sample.(1) sample.(2));
      ( (if marginals_ok && !collusion_ok && leak && fits_all then E.Pass
         else E.Fail "collusion-resistance battery failed"),
        Buffer.contents buf ))

(* ================================================================= *)
(* BAY — Bayesian vs minimax consumers (§2.7)                        *)
(* ================================================================= *)

let bayesian =
  E.make ~id:"BAY" ~title:"§2.7: Bayesian (Ghosh et al.) vs minimax consumers"
    ~paper_claim:
      "Bayesian consumers post-process deterministically and also attain their tailored \
       optimum from the geometric mechanism; minimax consumers need randomization"
    (fun () ->
      let n = 3 in
      let alpha = q 1 4 in
      let g = Geo.matrix ~n ~alpha in
      let priors =
        [
          ("uniform", Bay.uniform_prior n);
          ("peaked@0", Bay.peaked_prior ~n ~peak:0 ~decay:(q 1 3));
          ("peaked@2", Bay.peaked_prior ~n ~peak:2 ~decay:(q 1 2));
        ]
      in
      let ok = ref true in
      let rows =
        List.concat_map
          (fun loss ->
            List.map
              (fun (pname, prior) ->
                let b = Bay.make ~prior ~loss () in
                let remap = Bay.optimal_remap b g in
                let _, remap_loss = Bay.post_process b g in
                let _, lp_loss = Bay.optimal_mechanism ~alpha b ~n in
                let equal = Rat.equal remap_loss lp_loss in
                if not equal then ok := false;
                [
                  L.name loss;
                  pname;
                  String.concat "" (Array.to_list (Array.map string_of_int remap));
                  Rat.to_string remap_loss;
                  Rat.to_string lp_loss;
                  string_of_bool equal;
                ])
              priors)
          [ L.absolute; L.squared; L.zero_one ]
      in
      let table =
        T.make
          ~headers:[ "loss"; "prior"; "remap r→r'"; "geo+remap loss"; "LP optimum"; "equal" ]
          rows
      in
      (* the minimax contrast: Table-1 consumer's optimal interaction is
         randomized. *)
      let consumer = C.make ~loss:L.absolute ~side_info:(Si.full n) () in
      let cmp = U.compare_for ~alpha consumer in
      let minimax_randomized = not (Bay.is_deterministic cmp.U.interaction) in
      let detail =
        buf_table table
        ^ Printf.sprintf
            "  every Bayesian optimal post-processing above is deterministic (a remap).\n\
            \  the minimax consumer's optimal interaction is randomized: %b\n"
            minimax_randomized
      in
      ((if !ok && minimax_randomized then E.Pass else E.Fail "Bayesian battery failed"), detail))

(* ================================================================= *)
(* OBL — Appendix A: obliviousness w.l.o.g.                          *)
(* ================================================================= *)

let oblivious =
  E.make ~id:"OBL" ~title:"Appendix A / Lemma 6: oblivious mechanisms suffice"
    ~paper_claim:
      "averaging a non-oblivious α-DP mechanism over count classes preserves α-DP and \
       never increases any minimax consumer's loss"
    (fun () ->
      let module Ob = Minimax.Oblivious in
      let w = Ob.binary_world 5 in
      let alpha = q 1 2 in
      let rng = Prob.Rng.of_int 4242 in
      let consumers =
        [
          C.make ~loss:L.absolute ~side_info:(Si.full 5) ();
          C.make ~loss:L.squared ~side_info:(Si.at_least ~n:5 2) ();
        ]
      in
      let ok = ref true in
      let rows = ref [] in
      for trial = 1 to 6 do
        let m = Ob.random_nonoblivious w ~alpha rng in
        let averaged = Ob.make_oblivious w m in
        let dp = M.is_dp ~alpha averaged in
        if not dp then ok := false;
        List.iter
          (fun c ->
            let ln = Ob.nonoblivious_loss w m c in
            let lo = C.minimax_loss c averaged in
            if Rat.compare lo ln > 0 then ok := false;
            rows :=
              [
                string_of_int trial;
                C.label c;
                dec ~places:5 ln;
                dec ~places:5 lo;
                string_of_bool dp;
              ]
              :: !rows)
          consumers
      done;
      let table =
        T.make
          ~headers:[ "trial"; "consumer"; "non-oblivious loss"; "averaged loss"; "averaged α-DP" ]
          (List.rev !rows)
      in
      ((if !ok then E.Pass else E.Fail "Lemma 6 battery failed"), buf_table table))

(* ================================================================= *)
(* LFP — least-favorable priors: minimax meets Bayes                 *)
(* ================================================================= *)

let least_favorable =
  E.make ~id:"LFP" ~title:"Minimax theorem: LP duals give the least-favorable prior"
    ~paper_claim:
      "(ours, connecting §2.3 and §2.7) the duals of the §2.5 LP's loss rows form the \
       adversary's least-favorable prior: the best Bayesian mechanism under that prior \
       achieves exactly the minimax loss"
    (fun () ->
      let ok = ref true in
      let rows =
        List.map
          (fun (n, alpha, loss, si_name, si) ->
            let consumer = C.make ~loss ~side_info:si () in
            match Om.least_favorable_prior ~alpha consumer with
            | None ->
              ok := false;
              [ si_name; L.name loss; "degenerate"; "-"; "-"; "-" ]
            | Some (prior, minimax_loss) ->
              let b = Bay.make ~prior ~loss () in
              let _, bayes_loss = Bay.optimal_mechanism ~alpha b ~n in
              let equal = Rat.equal minimax_loss bayes_loss in
              if not equal then ok := false;
              [
                si_name;
                L.name loss;
                String.concat ";" (Array.to_list (Array.map Rat.to_string prior));
                Rat.to_string minimax_loss;
                Rat.to_string bayes_loss;
                string_of_bool equal;
              ])
          [
            (3, q 1 2, L.absolute, "full {0..3}", Si.full 3);
            (3, q 1 4, L.absolute, "full {0..3}", Si.full 3);
            (3, q 1 2, L.zero_one, "full {0..3}", Si.full 3);
            (4, q 1 2, L.squared, ">= 2", Si.at_least ~n:4 2);
            (4, q 1 3, L.absolute, "{1..3}", Si.interval ~n:4 1 3);
          ]
      in
      let table =
        T.make
          ~headers:[ "side info"; "loss"; "least-favorable prior"; "minimax"; "bayes(LFP)"; "equal" ]
          rows
      in
      ((if !ok then E.Pass else E.Fail "minimax theorem check failed"), buf_table table))

(* ================================================================= *)
(* ABL1 — ablation: simplex pricing rule and crash basis             *)
(* ================================================================= *)

let ablation_lp =
  E.make ~id:"ABL1" ~title:"Ablation: simplex pricing rule × crash basis"
    ~paper_claim:
      "(ours; DESIGN.md decision 3) optimal privacy mechanisms are highly degenerate LP \
       vertices; naive Bland pricing crawls, Dantzig+lexicographic with a slack crash \
       basis is an order of magnitude faster at identical (exact) optima"
    (fun () ->
      let consumer n = C.make ~loss:L.absolute ~side_info:(Si.full n) () in
      let alpha = q 1 2 in
      let configs =
        [
          ("dantzig+lex, crash", `Direct (Some Lp.Revised.Dantzig_lex, Some true));
          ("dantzig+lex, no crash", `Direct (Some Lp.Revised.Dantzig_lex, Some false));
          ("bland, crash", `Direct (Some Lp.Revised.Bland, Some true));
          ("via Theorem-1 interaction", `Fast);
        ]
      in
      let ok = ref true in
      let rows =
        List.concat_map
          (fun n ->
            let reference = ref None in
            List.map
              (fun (name, config) ->
                let t0 = now_s () in
                let r =
                  match config with
                  | `Direct (pricing, crash) -> Om.solve ?pricing ?crash ~alpha (consumer n)
                  | `Fast -> Om.solve_via_interaction ~alpha (consumer n)
                in
                let dt = now_s () -. t0 in
                (match !reference with
                 | None -> reference := Some r.Om.loss
                 | Some expected -> if not (Rat.equal expected r.Om.loss) then ok := false);
                [ string_of_int n; name; Printf.sprintf "%.3fs" dt; Rat.to_string r.Om.loss ])
              configs)
          [ 4; 5; 6 ]
      in
      let table = T.make ~headers:[ "n"; "configuration"; "wall time"; "optimum" ] rows in
      ( (if !ok then E.Pass else E.Fail "configurations disagree on the optimum"),
        buf_table table
        ^ "  all configurations return the same exact optimum; timings justify the default.\n" ))

(* ================================================================= *)
(* ABL2 — ablation: exact rationals vs floating point                *)
(* ================================================================= *)

let ablation_numeric =
  E.make ~id:"ABL2" ~title:"Ablation: exact ℚ vs floating point on the derivability test"
    ~paper_claim:
      "(ours; DESIGN.md decision 1) Theorem-2 verdicts hinge on exact sign tests of \
       G⁻¹·M entries; floating point leaves residuals that make tight-at-zero entries \
       ambiguous, while ℚ gives certified verdicts"
    (fun () ->
      let buf = Buffer.create 512 in
      let ok = ref true in
      List.iter
        (fun (n, alpha_num, alpha_den) ->
          let alpha = q alpha_num alpha_den in
          (* A mechanism derivable BY CONSTRUCTION: G·T with a sparse T
             whose zeros make many factor entries exactly 0 — the
             adversarial case for float sign classification. *)
          let g = Geo.matrix ~n ~alpha in
          let t =
            Array.init (n + 1) (fun r ->
                Array.init (n + 1) (fun r' ->
                    if r = r' then q 1 2
                    else if (r' = r + 1 && r < n) || (r = n && r' = 0) then q 1 2
                    else Rat.zero))
          in
          let m = M.compose g t in
          (* Exact factor: recovered exactly, entrywise. *)
          let exact_factor = Der.factor ~alpha m in
          let exact_ok = Qm.equal exact_factor t in
          (* Float factor: G_f⁻¹ · M_f. *)
          let gf = Lp_oracle.q_to_float (M.matrix g) in
          let mf = Lp_oracle.q_to_float (M.matrix m) in
          (match Lp_oracle.Fl.inverse gf with
           | None ->
             ok := false;
             Buffer.add_string buf "  float inverse failed\n"
           | Some gf_inv ->
             let tf = Lp_oracle.Fl.mul gf_inv mf in
             (* Residual on entries that are exactly zero in ℚ. *)
             let max_residual = ref 0.0 in
             for i = 0 to n do
               for j = 0 to n do
                 if Rat.is_zero exact_factor.(i).(j) then
                   max_residual := Float.max !max_residual (Float.abs tf.(i).(j))
               done
             done;
             if not exact_ok then ok := false;
             Buffer.add_string buf
               (Printf.sprintf
                  "  n=%2d α=%s: exact factor recovered exactly: %b; float residual on \
                   true-zero entries: %.3e\n"
                  n (Rat.to_string alpha) exact_ok !max_residual))
          )
        [ (6, 1, 2); (10, 3, 4); (14, 9, 10) ];
      Buffer.add_string buf
        "  the float residuals are nonzero: any sign-based verdict needs a tolerance, and \
         Lemma-5-style tight patterns sit exactly at that tolerance. Exact ℚ avoids the \
         question.\n";
      (* Second panel: the SAME tailored-mechanism LP solved in both
         arithmetics through the shared modelling facade. *)
      Buffer.add_string buf "\n  same LP, two arithmetics (optimal-mechanism LP, |i-r| loss, S full):\n";
      List.iter
        (fun (n, alpha) ->
          let consumer = C.make ~loss:L.absolute ~side_info:(Si.full n) () in
          let exact = Om.solve ~alpha consumer in
          let p, _, d = Om.build_problem ~alpha ~n consumer in
          Lp.set_objective p Lp.Minimize (Lp.Expr.var d);
          let t0 = now_s () in
          (match Lp_oracle.solve_float p with
           | Lp_oracle.Foptimal f ->
             let dt = now_s () -. t0 in
             let exact_f = Rat.to_float exact.Om.loss in
             (* The float mirror honors the pricing knob. In exact ℚ
                the pricing rule cannot change the optimum; in floating
                point it changes the pivot path and hence the rounding
                — the spread between the two float answers is itself an
                ablation data point. *)
             let bland_spread =
               match Lp_oracle.solve_float ~pricing:Lp.Revised.Bland p with
               | Lp_oracle.Foptimal fb ->
                 Float.abs (fb.Lp_oracle.fobjective -. f.Lp_oracle.fobjective)
               | Lp_oracle.Finfeasible | Lp_oracle.Funbounded -> Float.nan
             in
             Buffer.add_string buf
               (Printf.sprintf
                  "    n=%d α=%s: exact %s; float %.12f (Δ=%.2e, %.3fs float; \
                   Dantzig-vs-Bland float spread %.2e)\n"
                  n (Rat.to_string alpha) (Rat.to_string exact.Om.loss) f.Lp_oracle.fobjective
                  (Float.abs (f.Lp_oracle.fobjective -. exact_f))
                  dt bland_spread)
           | Lp_oracle.Finfeasible | Lp_oracle.Funbounded ->
             ok := false;
             Buffer.add_string buf "    float solver misclassified a feasible LP\n"))
        [ (3, q 1 2); (5, q 1 2); (6, q 1 4) ];
      ((if !ok then E.Pass else E.Fail "exact path failed"), Buffer.contents buf))

(* ================================================================= *)
(* R1 — resilience: the serve ladder under budgets and faults        *)
(* ================================================================= *)

let resilience_ladder =
  let module S = Minimax.Serve in
  let module B = Resilience.Budget in
  let module F = Resilience.Fault in
  let module SE = Resilience.Solver_error in
  E.make ~id:"R1" ~title:"Resilience: serve-ladder degradation under budgets and faults"
    ~paper_claim:
      "(ours; DESIGN.md §4d) by Theorem 1 the serve path needs no tailored §2.5 LP: \
       G(n,α) with the consumer's optimal-interaction remap is optimal, and when that \
       LP cannot finish within budget the ladder degrades to raw G(n,α) — every rung \
       re-certified α-DP before release, with provenance recording what was tried"
    (fun () ->
      let alpha = q 1 2 in
      let n = 5 in
      let consumer = C.make ~loss:L.absolute ~side_info:(Si.full n) () in
      let ok = ref true in
      let scenarios =
        [
          ("no budget", None, None, S.Geometric_remap);
          (* 3 pivots cannot finish the interaction LP. *)
          ("max-pivots 3", Some (fun () -> B.make ~max_pivots:3 ()), None, S.Geometric_raw);
          ( "fault: exhaust every simplex site",
            None,
            Some
              (fun () ->
                F.plan
                  [
                    { F.site = "simplex.phase1"; hits = 0; action = F.Exhaust SE.Pivots };
                    { F.site = "simplex.phase2"; hits = 0; action = F.Exhaust SE.Pivots };
                  ]),
            S.Geometric_raw );
        ]
      in
      let tailored = Om.solve ~alpha consumer in
      let rows =
        List.map
          (fun (name, budget, plan, expect) ->
            let t0 = now_s () in
            let serve () = S.serve ?budget:(Option.map (fun b -> b ()) budget) ~alpha consumer in
            let s = match plan with None -> serve () | Some p -> F.with_plan (p ()) serve in
            let dt = now_s () -. t0 in
            let p = s.S.provenance in
            let certified =
              Check.Invariants.passed
                (Check.Invariants.alpha_dp ~alpha (M.matrix s.S.mechanism))
            in
            if p.S.rung <> expect || not certified then ok := false;
            (* Theorem 1: the remap rung must match the tailored optimum,
               which the §2.5 LP computes here as the oracle. *)
            if p.S.rung = S.Geometric_remap && not (Rat.equal s.S.loss tailored.Om.loss) then
              ok := false;
            [
              name;
              S.rung_to_string p.S.rung;
              Rat.to_string s.S.loss;
              string_of_int (List.length p.S.attempts);
              string_of_int p.S.pivots_spent;
              (if certified then "yes" else "NO");
              Printf.sprintf "%.3fs" dt;
            ])
          scenarios
      in
      let table =
        T.make ~headers:[ "scenario"; "rung"; "loss"; "degradations"; "pivots"; "α-DP"; "wall" ]
          rows
      in
      ( (if !ok then E.Pass else E.Fail "a rung, certification, or Theorem-1 equality failed"),
        buf_table table
        ^ Printf.sprintf
            "  tailored §2.5 LP optimum (oracle, not a rung): %s\n\
            \  degradations counted this run: %d (counter \"resilience.degradations\"); \
             with no budget and no plan the solver takes its zero-overhead path.\n"
            (Rat.to_string tailored.Om.loss)
            (Obs.counter_value "resilience.degradations") ))

(* ================================================================= *)
(* E1 — engine: mechanism cache + compiled samplers + Domain pool    *)
(* ================================================================= *)

let engine_serving =
  let module En = Engine in
  let module Rq = Engine.Request in
  E.make ~id:"E1" ~title:"Engine: cached, compiled serving across a Domain pool"
    ~paper_claim:
      "(ours; DESIGN.md §4e) Theorem 1 makes serving cacheable: one certified compile per \
       consumer answers every request that names it, per-row exact alias tables make each \
       subsequent draw O(1), and per-index Rng streams make batch output byte-identical \
       for any worker count"
    (fun () ->
      let n = 6 and alpha = q 1 2 in
      let losses = [ Rq.Absolute; Rq.Squared; Rq.Zero_one; Rq.Capped 2 ] in
      let count = 8_000 in
      let requests =
        Array.of_list
          (List.concat_map
             (fun loss ->
               List.map
                 (fun input ->
                   match Rq.make ~input ~count ~n ~alpha ~loss ~side:Rq.Full () with
                   | Ok r -> r
                   | Error m -> failwith ("E1 request: " ^ m))
                 [ 0; 2; 4; 6 ])
             losses)
      in
      let run ~domains =
        En.with_engine ~domains ~cache_capacity:8 (fun e ->
            let t0 = now_s () in
            let rs = En.run_batch ~seed:2026 e requests in
            let dt = now_s () -. t0 in
            let certified =
              Array.for_all
                (fun (r : En.response) ->
                  match En.artifact e r.En.request with
                  | Some a -> a.En.Compiled.certificates <> []
                  | None -> false)
                rs
            in
            (rs, dt, En.cache_stats e, certified))
      in
      let rs1, dt1, stats1, certs1 = run ~domains:1 in
      let workers = max 2 (En.Pool.recommended_domains ()) in
      let rsn, dtn, statsn, certsn = run ~domains:workers in
      let samples rs = Array.map (fun (r : En.response) -> r.En.samples) rs in
      let identical = samples rs1 = samples rsn in
      let total =
        Array.fold_left (fun a (r : En.response) -> a + Array.length r.En.samples) 0 rs1
      in
      let distinct = List.length losses in
      let cache_ok (s : En.Cache.stats) =
        s.En.Cache.misses = distinct && s.En.Cache.hits = Array.length requests - distinct
      in
      let cores = Domain.recommended_domain_count () in
      let speedup = if dtn > 0. then dt1 /. dtn else 0. in
      (* The >= 2x criterion only binds on machines with enough cores to
         make it physically possible; speedup is recorded regardless. *)
      let speedup_binding = cores >= 4 in
      let speedup_ok = (not speedup_binding) || speedup >= 2.0 in
      let row name dt (s : En.Cache.stats) =
        [
          name;
          Printf.sprintf "%.3fs" dt;
          Printf.sprintf "%.0f" (float_of_int total /. dt);
          Printf.sprintf "%d/%d" s.En.Cache.hits s.En.Cache.misses;
        ]
      in
      let table =
        T.make ~headers:[ "engine"; "wall"; "samples/s"; "cache hit/miss" ]
          [
            row "domains=1 (inline)" dt1 stats1;
            row (Printf.sprintf "domains=%d" workers) dtn statsn;
          ]
      in
      let problems =
        List.filter_map Fun.id
          [
            (if identical then None else Some "outputs differ across worker counts");
            (if certs1 && certsn then None else Some "a cached artifact lacks certificates");
            (if cache_ok stats1 && cache_ok statsn then None
             else Some "cache hit/miss counts off");
            (if speedup_ok then None else Some "speedup < 2x on >= 4 cores");
          ]
      in
      ( (if problems = [] then E.Pass else E.Fail (String.concat "; " problems)),
        buf_table table
        ^ Printf.sprintf
            "  %d requests over %d distinct consumers, %d samples total (seed 2026).\n\
            \  byte-identical across worker counts: %b; all artifacts certified: %b\n\
            \  parallel speedup: %.2fx (criterion %s: %d core(s) recommended)\n"
            (Array.length requests) distinct total identical (certs1 && certsn) speedup
            (if speedup_binding then ">= 2x binding" else "recorded only, not binding")
            cores ))

(* ================================================================= *)
(* N1 — Network serving: TCP front-end over the engine               *)
(* ================================================================= *)

let network_serving =
  let module En = Engine in
  let module Sv = Server in
  let module Fr = Server.Framing in
  E.make ~id:"N1" ~title:"Network: TCP serving over the engine (throughput, latency, overload)"
    ~paper_claim:
      "(ours; DESIGN.md §4f) one mechanism serves every consumer, so serving is a wire \
       protocol away: dpserved's responses are byte-identical to local engine runs for the \
       same request file, and its admission control refuses overload with typed responses \
       instead of hanging"
    (fun () ->
      let connect port =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        fd
      in
      let with_server config f =
        let t = Sv.create ~config () in
        let d = Domain.spawn (fun () -> Sv.serve t) in
        Fun.protect
          ~finally:(fun () ->
            Sv.stop t;
            Domain.join d)
          (fun () -> f (Sv.port t))
      in
      let send fd lines =
        let w = Fr.writer fd in
        List.iter (Fr.enqueue w) lines;
        (match Fr.flush_blocking w with
         | Fr.Flushed -> ()
         | Fr.Blocked | Fr.Closed -> failwith "N1: client write failed");
        Unix.shutdown fd Unix.SHUTDOWN_SEND
      in
      (* Read every response to eof, stamping each line's arrival. *)
      let recv_timed fd =
        let r = Fr.reader fd in
        let rec go acc =
          let res = Fr.poll r in
          let t = now_s () in
          let acc = List.rev_append (List.map (fun l -> (l, t)) res.Fr.lines) acc in
          if res.Fr.eof then List.rev acc else go acc
        in
        go []
      in
      let status_of line =
        match Json.of_string line with
        | Error m -> failwith ("N1: unparseable response: " ^ m)
        | Ok j -> (
          match Option.bind (Json.member "status" j) Json.to_str_opt with
          | Some s -> s
          | None -> failwith "N1: response without a status")
      in
      let kind_of line =
        match Json.of_string line with
        | Error _ -> None
        | Ok j ->
          Option.bind (Json.member "error" j) (fun e ->
              Option.bind (Json.member "kind" e) Json.to_str_opt)
      in
      let workers = max 2 (En.Pool.recommended_domains ()) in

      (* Phase 1 — sustained throughput: one connection streams 32
         requests over 3 cached consumers, and every response byte must
         equal the local engine's for the same file. *)
      let reqs = 32 and count = 2_000 in
      let lines =
        List.init reqs (fun k ->
            Printf.sprintf "v=1 id=t%d seed=%d n=%d alpha=1/2 count=%d" k (700 + k)
              (4 + (k mod 3)) count)
      in
      let wires =
        List.map
          (fun l ->
            match En.Request.of_line l with
            | Ok (En.Request.Query w) -> w
            | Ok (En.Request.Stats _ | En.Request.Session _) ->
              failwith "N1: unexpected op line"
            | Error e -> failwith ("N1: " ^ En.Request.wire_error_to_string e))
          lines
      in
      let reference =
        En.with_engine ~domains:1 (fun e ->
            let seeder = En.Seeder.create () in
            let jobs =
              List.map
                (fun (w : En.Request.wire) ->
                  {
                    En.request = w.En.Request.request;
                    stream =
                      En.Seeder.stream seeder
                        ~seed:(Option.value w.En.Request.seed ~default:42);
                    budget = None;
                    trace = None;
                  })
                wires
            in
            En.run_jobs e (Array.of_list jobs)
            |> Array.to_list
            |> List.map2
                 (fun (w : En.Request.wire) result ->
                   match result with
                   | Ok r ->
                     Server.Response.to_line (Server.Response.of_engine ?id:w.En.Request.id r)
                   | Error err ->
                     Server.Response.to_line
                       (Server.Response.of_job_error ?id:w.En.Request.id err))
                 wires)
      in
      let serve_config =
        { Sv.default_config with Sv.domains = Some workers; queue_capacity = 64 }
      in
      let t0 = ref 0. in
      let timed =
        with_server serve_config (fun port ->
            let fd = connect port in
            t0 := now_s ();
            send fd lines;
            let timed = recv_timed fd in
            Unix.close fd;
            timed)
      in
      let got = List.map fst timed in
      let arrivals = List.map (fun (_, t) -> t -. !t0) timed in
      let dt = List.fold_left Float.max 0. arrivals in
      let mean_lat =
        if arrivals = [] then 0.
        else List.fold_left ( +. ) 0. arrivals /. float_of_int (List.length arrivals)
      in
      let total_samples = reqs * count in
      let throughput = if dt > 0. then float_of_int total_samples /. dt else 0. in
      let identical = got = reference in
      let all_served =
        List.for_all (fun l -> status_of l = "ok" || status_of l = "degraded") got
      in

      (* Phase 2 — overload: a 16-request burst against queue_capacity
         1 and a single worker. Every request must be answered — some
         served, the rest typed overloaded refusals, never a hang. *)
      let burst = 16 in
      let burst_lines =
        List.init burst (fun k ->
            Printf.sprintf "v=1 id=b%d seed=%d n=6 alpha=1/2 count=4" k (900 + k))
      in
      let overload_config =
        { Sv.default_config with Sv.domains = Some 1; queue_capacity = 1 }
      in
      let burst_got =
        with_server overload_config (fun port ->
            let fd = connect port in
            send fd burst_lines;
            let out = List.map fst (recv_timed fd) in
            Unix.close fd;
            out)
      in
      let answered = List.length burst_got in
      let refused =
        List.length (List.filter (fun l -> kind_of l = Some "overloaded") burst_got)
      in
      let served = answered - refused in
      let table =
        T.make ~headers:[ "phase"; "wall"; "requests"; "samples/s"; "refused" ]
          [
            [
              Printf.sprintf "throughput (domains=%d)" workers;
              Printf.sprintf "%.3fs" dt;
              string_of_int reqs;
              Printf.sprintf "%.0f" throughput;
              "0";
            ];
            [
              "overload burst (queue=1)";
              "-";
              string_of_int burst;
              "-";
              Printf.sprintf "%d/%d" refused burst;
            ];
          ]
      in
      let problems =
        List.filter_map Fun.id
          [
            (if identical then None else Some "served bytes differ from the local engine's");
            (if all_served then None else Some "a streamed request was refused");
            (if answered = burst then None
             else Some "overload burst: not every request was answered");
            (if refused >= 1 then None else Some "overload burst: queue=1 refused nothing");
            (if served >= 1 then None else Some "overload burst: nothing served");
          ]
      in
      ( (if problems = [] then E.Pass else E.Fail (String.concat "; " problems)),
        buf_table table
        ^ Printf.sprintf
            "  %d requests x %d samples over 3 consumers on one connection: %.0f samples/s;\n\
            \  response completion latency mean %.1f ms, max %.1f ms (includes compiles);\n\
            \  byte-identical to dpopt engine: %b. burst of %d against queue=1: %d served,\n\
            \  %d typed overloaded refusal(s), every request answered.\n"
            reqs count throughput (mean_lat *. 1000.) (dt *. 1000.) identical burst served
            refused ))

(* ================================================================= *)
(* O1 — Telemetry: overhead and live stats under load                *)
(* ================================================================= *)

let telemetry_plane =
  let module En = Engine in
  let module Sv = Server in
  let module Fr = Server.Framing in
  E.make ~id:"O1" ~title:"Telemetry: recorder overhead and op=stats under load"
    ~paper_claim:
      "(ours; DESIGN.md §4h) the telemetry plane is cheap enough to leave on: served \
       bytes are identical with the recorder on or off, the instrumented engine stays \
       within 5% of the uninstrumented wall time, and v=1 op=stats answers live — exact \
       counters and rolling latency quantiles — while the server is busy"
    (fun () ->
      (* Phase 1 — overhead: the same sampling-heavy batch through the
         engine with and without an ambient recorder. The disabled
         path is a single ref read per instrumentation site, so the
         gap should be noise; we bind the 5% criterion only when the
         baseline is long enough to measure it. *)
      let reqs = 24 and count = 20_000 in
      let lines =
        List.init reqs (fun k ->
            Printf.sprintf "v=1 id=o%d seed=%d n=%d alpha=1/2 count=%d" k (300 + k)
              (4 + (k mod 3)) count)
      in
      let wires =
        List.map
          (fun l ->
            match En.Request.of_line l with
            | Ok (En.Request.Query w) -> w
            | Ok (En.Request.Stats _ | En.Request.Session _) ->
              failwith "O1: unexpected op line"
            | Error e -> failwith ("O1: " ^ En.Request.wire_error_to_string e))
          lines
      in
      let jobs_of seeder wires =
        List.map
          (fun (w : En.Request.wire) ->
            let trace =
              if Obs.enabled () then
                Some (Obs.Trace.make (Option.value w.En.Request.id ~default:"o"))
              else None
            in
            {
              En.request = w.En.Request.request;
              stream =
                En.Seeder.stream seeder ~seed:(Option.value w.En.Request.seed ~default:42);
              budget = None;
              trace;
            })
          wires
      in
      let run_once () =
        En.with_engine ~domains:2 (fun e ->
            (* Compile the batch's three consumers (n = 4, 5, 6) before
               the clock starts, so both arms time the same sampling
               work and no compile. *)
            ignore
              (En.run_jobs e
                 (Array.of_list (jobs_of (En.Seeder.create ()) (List.filteri (fun k _ -> k < 3) wires))));
            let jobs = jobs_of (En.Seeder.create ()) wires in
            let t0 = now_s () in
            let results = En.run_jobs e (Array.of_list jobs) in
            let dt = now_s () -. t0 in
            let rendered =
              Array.to_list results
              |> List.map2
                   (fun (w : En.Request.wire) r ->
                     match r with
                     | Ok r -> Server.Response.to_line (Server.Response.of_engine ?id:w.En.Request.id r)
                     | Error e ->
                       Server.Response.to_line
                         (Server.Response.of_job_error ?id:w.En.Request.id e))
                   wires
            in
            (rendered, dt))
      in
      let without_recorder f =
        let saved = Obs.current () in
        Obs.set_current None;
        Fun.protect ~finally:(fun () -> Obs.set_current saved) f
      in
      (* Interleaved (off, on) pairs, alternating which side runs
         first so warm-up and drift fall on both sides equally; each
         side is summarized by its median. *)
      let pairs = 10 in
      let off () = without_recorder run_once
      and on () = Obs.with_recorder (Obs.create ()) run_once in
      let runs =
        List.init pairs (fun k ->
            if k mod 2 = 0 then
              let o = off () in
              (o, on ())
            else
              let n = on () in
              (off (), n))
      in
      let median xs =
        let a = Array.of_list (List.sort compare xs) in
        let m = Array.length a / 2 in
        if Array.length a mod 2 = 1 then a.(m) else (a.(m - 1) +. a.(m)) /. 2.
      in
      let bytes_off = fst (fst (List.hd runs)) in
      let identical =
        List.for_all (fun ((b_off, _), (b_on, _)) -> b_off = bytes_off && b_on = bytes_off) runs
      in
      let dt_off = median (List.map (fun ((_, d), _) -> d) runs)
      and dt_on = median (List.map (fun (_, (_, d)) -> d) runs) in
      let overhead = if dt_off > 0. then (dt_on -. dt_off) /. dt_off else 0. in
      let overhead_binding = dt_off >= 0.05 in
      let overhead_ok = (not overhead_binding) || overhead <= 0.05 in

      (* Phase 2 — live stats: a busy server must answer op=stats from
         the event loop (counters mid-flight are point-in-time but
         bounded), and once drained the counts must be exact. *)
      let connect port =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        fd
      in
      let send ?(close = true) fd ls =
        let w = Fr.writer fd in
        List.iter (Fr.enqueue w) ls;
        (match Fr.flush_blocking w with
         | Fr.Flushed -> ()
         | Fr.Blocked | Fr.Closed -> failwith "O1: client write failed");
        if close then Unix.shutdown fd Unix.SHUTDOWN_SEND
      in
      let recv_all fd =
        let r = Fr.reader fd in
        let rec go acc =
          let res = Fr.poll r in
          let acc = List.rev_append res.Fr.lines acc in
          if res.Fr.eof then List.rev acc else go acc
        in
        go []
      in
      let stats_field line path =
        match Json.of_string line with
        | Error m -> failwith ("O1: unparseable stats response: " ^ m)
        | Ok j ->
          let rec walk j = function
            | [] -> Json.to_int_opt j
            | k :: rest -> ( match Json.member k j with None -> None | Some v -> walk v rest)
          in
          walk j path
      in
      let k_load = 16 and load_count = 50 in
      let load_lines =
        List.init k_load (fun k ->
            Printf.sprintf "v=1 id=l%d seed=%d n=6 alpha=1/2 count=%d" k (500 + k) load_count)
      in
      let config = { Sv.default_config with Sv.domains = Some 2; queue_capacity = 64 } in
      let mid_line, final_line, load_got =
        Obs.with_recorder (Obs.create ()) (fun () ->
            let t = Sv.create ~config () in
            let d = Domain.spawn (fun () -> Sv.serve t) in
            Fun.protect
              ~finally:(fun () ->
                Sv.stop t;
                Domain.join d)
              (fun () ->
                let port = Sv.port t in
                let load_fd = connect port in
                send load_fd load_lines;
                (* While the runner chews the batch, a second
                   connection asks for stats: answered immediately on
                   the event loop, not queued behind the load. *)
                let mid =
                  let fd = connect port in
                  send fd [ "v=1 op=stats id=mid" ];
                  let out = recv_all fd in
                  Unix.close fd;
                  match out with [ l ] -> l | _ -> failwith "O1: mid-load stats != 1 line"
                in
                let load_got = recv_all load_fd in
                Unix.close load_fd;
                let final =
                  let fd = connect port in
                  send fd [ "v=1 op=stats id=end" ];
                  let out = recv_all fd in
                  Unix.close fd;
                  match out with [ l ] -> l | _ -> failwith "O1: final stats != 1 line"
                in
                (mid, final, load_got)))
      in
      let mid_admitted = Option.value (stats_field mid_line [ "stats"; "requests"; "admitted" ]) ~default:(-1) in
      let mid_ok =
        stats_field mid_line [ "v" ] = Some 1
        && mid_admitted >= 0 && mid_admitted <= k_load
      in
      let final_responses =
        Option.value (stats_field final_line [ "stats"; "requests"; "responses" ]) ~default:(-1)
      in
      let final_samples =
        Option.value (stats_field final_line [ "stats"; "engine"; "samples" ]) ~default:(-1)
      in
      let final_latency_count =
        Option.value (stats_field final_line [ "stats"; "latency_us"; "count" ]) ~default:(-1)
      in
      let p50 = Option.value (stats_field final_line [ "stats"; "latency_us"; "p50_us" ]) ~default:(-1) in
      let p99 = Option.value (stats_field final_line [ "stats"; "latency_us"; "p99_us" ]) ~default:(-1) in
      let p999 = Option.value (stats_field final_line [ "stats"; "latency_us"; "p999_us" ]) ~default:(-1) in
      let final_ok =
        final_responses = k_load
        && final_samples = k_load * load_count
        && final_latency_count = k_load
        && p50 >= 0 && p50 <= p99 && p99 <= p999
      in
      let all_load_served =
        List.length load_got = k_load
        && List.for_all
             (fun l ->
               match Json.of_string l with
               | Error _ -> false
               | Ok j -> (
                 match Option.bind (Json.member "status" j) Json.to_str_opt with
                 | Some "ok" | Some "degraded" -> true
                 | _ -> false))
             load_got
      in
      let table =
        T.make ~headers:[ "measure"; "off"; "on"; "criterion" ]
          [
            [
              Printf.sprintf "engine wall (median, %d pairs)" pairs;
              Printf.sprintf "%.3fs" dt_off;
              Printf.sprintf "%.3fs" dt_on;
              Printf.sprintf "overhead %.1f%% (%s)" (overhead *. 100.)
                (if overhead_binding then "<= 5% binding" else "recorded only");
            ];
            [
              "served bytes";
              "-";
              "-";
              (if identical then "byte-identical on/off" else "DIFFER");
            ];
          ]
      in
      let problems =
        List.filter_map Fun.id
          [
            (if identical then None else Some "served bytes differ with telemetry on");
            (if overhead_ok then None
             else Some (Printf.sprintf "telemetry overhead %.1f%% > 5%%" (overhead *. 100.)));
            (if mid_ok then None else Some "mid-load op=stats malformed or out of bounds");
            (if final_ok then None else Some "drained op=stats counters inexact");
            (if all_load_served then None else Some "a load request was refused");
          ]
      in
      ( (if problems = [] then E.Pass else E.Fail (String.concat "; " problems)),
        buf_table table
        ^ Printf.sprintf
            "  %d requests x %d samples: recorder on %.3fs vs off %.3fs (%+.1f%%).\n\
            \  per pair (off/on s): %s.\n\
            \  mid-load stats: admitted %d/%d (point-in-time); drained: responses %d,\n\
            \  samples %d, latency window count %d, p50/p99/p999 = %d/%d/%d us.\n"
            reqs count dt_on dt_off (overhead *. 100.)
            (String.concat ", "
               (List.map (fun ((_, off), (_, on)) -> Printf.sprintf "%.3f/%.3f" off on) runs))
            mid_admitted k_load final_responses final_samples final_latency_count p50 p99 p999
        ))

(* ================================================================= *)
(* P1 — Persistence: warm restarts from the artifact store           *)
(* ================================================================= *)

let persistence =
  let module En = Engine in
  let module Rq = Engine.Request in
  let module St = Store in
  E.make ~id:"P1" ~title:"Persistence: cold vs warm restart over the artifact store"
    ~paper_claim:
      "(ours; DESIGN.md §4i) A compiled release is a pure function of its canonical \
       key, so a restarted process may serve a verified disk artifact instead of \
       re-running the simplex solve — byte-identically, because verify-on-load replays \
       the same Check.Invariants wall a fresh compile must pass"
    (fun () ->
      let n = 6 and alpha = q 1 2 in
      let count = 1_000 in
      let requests =
        Array.of_list
          (List.map
             (fun (input, loss) ->
               match Rq.make ~input ~count ~n ~alpha ~loss ~side:Rq.Full () with
               | Ok r -> r
               | Error m -> failwith ("P1 request: " ^ m))
             [ (1, Rq.Absolute); (3, Rq.Squared); (5, Rq.Zero_one) ])
      in
      let with_dir f =
        let dir = Filename.temp_file "dpstore-bench" "" in
        Sys.remove dir;
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists dir then begin
              Array.iter
                (fun name -> Sys.remove (Filename.concat dir name))
                (Sys.readdir dir);
              Sys.rmdir dir
            end)
          (fun () -> f dir)
      in
      let open_store dir =
        match St.open_dir dir with
        | Ok s -> s
        | Error e -> failwith ("P1 open_dir: " ^ St.error_to_string e)
      in
      let samples rs = Array.map (fun (r : En.response) -> r.En.samples) rs in
      (* TTFB: a fresh engine serving its very first request — the
         restart-critical path. Timed on a single-request batch so the
         clock covers exactly one compile (or one store probe). *)
      let ttfb ?tier () =
        En.with_engine ~domains:1 ?tier (fun e ->
            let t0 = now_s () in
            let _ = En.run_batch ~seed:11 e (Array.sub requests 0 1) in
            now_s () -. t0)
      in
      let full ?tier () =
        En.with_engine ~domains:1 ?tier (fun e -> En.run_batch ~seed:11 e requests)
      in
      (* Reference: the storeless bytes every tiered run must equal. *)
      let ref_rs = full () in
      let ttfb_ref = ttfb () in
      with_dir (fun dir ->
          (* Cold: empty directory. The first-request probe misses,
             compiles, and writes back. *)
          let cold_store = open_store dir in
          let ttfb_cold = ttfb ~tier:(St.tier cold_store) () in
          let cold_rs = full ~tier:(St.tier cold_store) () in
          let cold_stats = St.stats cold_store in
          (* Warm: a fresh process image over the populated directory —
             every request must come off disk, re-verified, with zero
             compiles (and therefore zero write-backs). *)
          let warm_store = open_store dir in
          let ttfb_warm = ttfb ~tier:(St.tier warm_store) () in
          let warm_rs = full ~tier:(St.tier warm_store) () in
          let warm_stats = St.stats warm_store in
          let identical = samples cold_rs = samples ref_rs && samples warm_rs = samples ref_rs in
          let all_store_hits =
            Array.for_all (fun (r : En.response) -> r.En.store_hit) warm_rs
          in
          let speedup = if ttfb_warm > 0. then ttfb_cold /. ttfb_warm else infinity in
          let row name dt (s : St.stats option) =
            [
              name;
              Printf.sprintf "%.4fs" dt;
              (match s with
              | None -> "-"
              | Some s ->
                Printf.sprintf "%d/%d/%d/%d" s.St.hits s.St.misses s.St.corrupt s.St.writes);
            ]
          in
          let table =
            T.make ~headers:[ "restart"; "ttfb"; "store hit/miss/corrupt/write" ]
              [
                row "storeless" ttfb_ref None;
                row "cold (empty store)" ttfb_cold (Some cold_stats);
                row "warm (populated store)" ttfb_warm (Some warm_stats);
              ]
          in
          let problems =
            List.filter_map Fun.id
              [
                (if identical then None
                 else Some "served bytes differ across storeless/cold/warm runs");
                (if all_store_hits then None
                 else Some "a warm request was not served from the store");
                (if warm_stats.St.writes = 0 then None
                 else Some "warm restart recompiled (write-backs > 0)");
                (if warm_stats.St.corrupt = 0 then None
                 else Some "warm restart refused an entry");
                (if speedup >= 5.0 then None
                 else Some (Printf.sprintf "warm ttfb only %.1fx faster than cold" speedup));
              ]
          in
          ( (if problems = [] then E.Pass else E.Fail (String.concat "; " problems)),
            buf_table table
            ^ Printf.sprintf
                "  %d requests x %d samples (seed 11); byte-identical across runs: %b.\n\
                \  warm restart served %d/%d requests from disk, 0 compiles;\n\
                \  first-response speedup cold->warm: %.1fx (>= 5x gate).\n"
                (Array.length requests) count identical
                (Array.fold_left
                   (fun a (r : En.response) -> if r.En.store_hit then a + 1 else a)
                   0 warm_rs)
                (Array.length requests) speedup )))

(* ================================================================= *)
(* S1 — Sessions: multi-level release as a stateful service          *)
(* ================================================================= *)

let session_service =
  E.make ~id:"S1" ~title:"Sessions: subscriptions, budget ledgers, collusion certificates"
    ~paper_claim:
      "(ours; DESIGN.md §4j) Algorithm 1 as a stateful service: subscribers sharing a \
       group receive the rungs of one correlated cascade draw per epoch — a pure \
       function of (seed, group, epoch) — so Lemma 4 holds release after release, \
       budgets compose multiplicatively to exact refusal floors, and a warm restart \
       resumes every ledger with zero double-spend"
    (fun () ->
      let module S = Session in
      let module Cert = Session.Certificate in
      let seed = 23 and n = 6 and input = 3 in
      let levels = [ q 1 4; q 1 2; q 3 4 ] in
      let group = S.group_key ~n ~input in
      let plan = Ml.make_plan ~n ~levels in
      let draw epoch =
        Ml.release plan ~true_result:input (S.epoch_stream ~seed ~group ~epoch)
      in
      let epochs = 8 in
      let fresh ?checkpoint () =
        match S.create ~seed ?checkpoint () with
        | Ok t -> t
        | Error m -> failwith ("S1 create: " ^ m)
      in
      (* Four concurrent subscribers, two sharing the middle level;
         only bea carries a budget floor. *)
      let subs =
        [ ("ada", 0, None); ("bea", 1, Some (q 1 4)); ("cyn", 2, None); ("dee", 1, None) ]
      in
      let subscribe t (sub, i, budget) =
        match S.subscribe t ~sub ~n ~input ~level:(List.nth levels i) ?budget () with
        | Ok _ -> ()
        | Error m -> failwith ("S1 subscribe: " ^ m)
      in
      let release t =
        match S.release t ~n ~input with
        | Ok r -> r
        | Error (S.Rejected m | S.Faulted m) -> failwith ("S1 release: " ^ m)
      in
      let ledger t sub =
        match S.ledger t ~sub ~n ~input with
        | Ok v -> v
        | Error m -> failwith ("S1 ledger: " ^ m)
      in
      let rec pow r k = if k = 0 then Rat.one else Rat.mul r (pow r (k - 1)) in
      let problems = ref [] in
      let fail m = if not (List.mem m !problems) then problems := m :: !problems in
      (* The uninterrupted reference service. *)
      let t = fresh () in
      List.iter (subscribe t) subs;
      let outcomes = Array.init epochs (fun _ -> release t) in
      (* Gate (a): every epoch's rungs are byte-derived from the one
         contract draw, and every served subscriber got exactly its
         rung of that draw. *)
      Array.iteri
        (fun e r ->
          if r.S.r_values <> draw e then
            fail (Printf.sprintf "gate a: epoch %d diverged from the contract draw" e);
          List.iter
            (fun (_, o) ->
              match o with
              | S.Served { level; value; _ } ->
                let idx = ref (-1) in
                List.iteri (fun i l -> if Rat.equal l level then idx := i) levels;
                if value <> r.S.r_values.(!idx) then
                  fail (Printf.sprintf "gate a: epoch %d served a rung off the draw" e)
              | S.Refused _ -> ())
            r.S.r_outcomes)
        outcomes;
      (* Gate (b): every certificate replays green from its own data,
         and the Lemma-4 posterior equality holds for the exact values
         released: colluding over all rungs learns nothing beyond the
         least-private rung alone. *)
      Array.iteri
        (fun e r ->
          (match Cert.replay r.S.r_certificate with
          | Ok () -> ()
          | Error rule ->
            fail (Printf.sprintf "gate b: epoch %d certificate red (%s)" e rule));
          let observed = Array.to_list (Array.mapi (fun i v -> (i, v)) r.S.r_values) in
          match
            (Ml.posterior plan ~observed, Ml.posterior plan ~observed:[ (0, r.S.r_values.(0)) ])
          with
          | Some joint, Some single ->
            if not (Array.for_all2 Rat.equal joint single) then
              fail
                (Printf.sprintf
                   "gate b: epoch %d colluding posterior differs from the least-private \
                    rung's"
                   e)
          | _ -> fail (Printf.sprintf "gate b: epoch %d posterior undefined" e))
        outcomes;
      (* Gate (c): exact ledger refusals under concurrent subscribers.
         bea (α=1/2, floor 1/4) serves epochs 0 and 1, then refuses
         with spent pinned at the floor; dee shares the level but has
         no floor and is never refused. *)
      Array.iteri
        (fun e r ->
          match (List.assoc "bea" r.S.r_outcomes, e >= 2) with
          | S.Served _, true ->
            fail (Printf.sprintf "gate c: epoch %d served bea past the floor" e)
          | S.Refused { spent; floor; _ }, true ->
            if not (Rat.equal spent (q 1 4) && Rat.equal floor (q 1 4)) then
              fail (Printf.sprintf "gate c: epoch %d refusal carries wrong ledger state" e)
          | S.Refused _, false ->
            fail (Printf.sprintf "gate c: epoch %d refused bea under the floor" e)
          | S.Served _, false -> ())
        outcomes;
      let expect_ledgers =
        [
          ("ada", pow (q 1 4) epochs, epochs, 0);
          ("bea", q 1 4, 2, epochs - 2);
          ("cyn", pow (q 3 4) epochs, epochs, 0);
          ("dee", pow (q 1 2) epochs, epochs, 0);
        ]
      in
      List.iter
        (fun (sub, spent, served, refusals) ->
          let v = ledger t sub in
          if
            not
              (Rat.equal v.S.v_spent spent && v.S.v_served = served
             && v.S.v_refusals = refusals)
          then fail (Printf.sprintf "gate c: %s's ledger is not the exact product" sub))
        expect_ledgers;
      (* Gate (d): warm restart. Run the same service over a
         checkpoint file, drop it after three epochs, resume from the
         frame, finish the sequence — every ledger and every epoch
         must land exactly where the uninterrupted service did. *)
      let split = 3 in
      let path = Filename.temp_file "dpsession-bench" ".frame" in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let t1 = fresh ~checkpoint:path () in
          List.iter (subscribe t1) subs;
          for _ = 1 to split do
            ignore (release t1)
          done;
          let t2 = fresh ~checkpoint:path () in
          let mid = ledger t2 "ada" in
          if not (Rat.equal mid.S.v_spent (pow (q 1 4) split)) || mid.S.v_epoch <> split
          then fail "gate d: restart did not resume the checkpointed ledger";
          if mid.S.v_active then fail "gate d: liveness must not be persisted";
          List.iter (subscribe t2) subs;
          let resumed = Array.init (epochs - split) (fun _ -> release t2) in
          Array.iteri
            (fun i r ->
              let e = split + i in
              if r.S.r_epoch <> e || r.S.r_values <> draw e then
                fail
                  (Printf.sprintf "gate d: resumed epoch %d diverged from the sequence" e))
            resumed;
          List.iter
            (fun (sub, _, _, _) ->
              let a = ledger t sub and b = ledger t2 sub in
              if
                not
                  (Rat.equal a.S.v_spent b.S.v_spent && a.S.v_served = b.S.v_served
                 && a.S.v_refusals = b.S.v_refusals && a.S.v_epoch = b.S.v_epoch)
              then
                fail
                  (Printf.sprintf "gate d: %s double-spent or lost spend across the restart"
                     sub))
            expect_ledgers);
      let values_str a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
      let table =
        T.make ~headers:[ "epoch"; "rungs (α=1/4,1/2,3/4)"; "bea (floor 1/4)"; "certificate" ]
          (Array.to_list
             (Array.mapi
                (fun e r ->
                  [
                    string_of_int e;
                    values_str r.S.r_values;
                    (match List.assoc "bea" r.S.r_outcomes with
                    | S.Served { spent; _ } -> "served, spent " ^ Rat.to_string spent
                    | S.Refused _ -> "budget_exhausted");
                    (match Cert.replay r.S.r_certificate with
                    | Ok () -> "replays green"
                    | Error rule -> "RED: " ^ rule);
                  ])
                outcomes))
      in
      ( (if !problems = [] then E.Pass else E.Fail (String.concat "; " (List.rev !problems))),
        buf_table table
        ^ Printf.sprintf
            "  %d epochs, 4 subscribers over group %s (seed %d).\n\
            \  gates: (a) rungs byte-derived from the per-epoch draw, (b) every \n\
            \  certificate replays green with the Lemma-4 posterior equality, (c) \n\
            \  ledger refusals exact under concurrent subscribers, (d) warm restart \n\
            \  after epoch %d resumed every ledger with zero double-spend.\n"
            epochs group seed split ))

(* ================================================================= *)
(* PERF — Bechamel micro-benchmarks                                  *)
(* ================================================================= *)

let perf_tests () =
  let open Bechamel in
  let consumer n = C.make ~loss:L.absolute ~side_info:(Si.full n) () in
  let lp_solve n alpha = Staged.stage (fun () -> ignore (Om.solve ~alpha (consumer n))) in
  let interaction n alpha =
    let g = Geo.matrix ~n ~alpha in
    Staged.stage (fun () -> ignore (Minimax.Optimal_interaction.solve ~deployed:g (consumer n)))
  in
  let geo_build n = Staged.stage (fun () -> ignore (Geo.matrix ~n ~alpha:(q 1 2))) in
  let transition n =
    Staged.stage (fun () -> ignore (Ml.transition ~n ~alpha:(q 1 4) ~beta:(q 1 2)))
  in
  let bigint_mul bits =
    let a = Bigint.pow (Bigint.of_int 3) bits and b = Bigint.pow (Bigint.of_int 7) bits in
    Staged.stage (fun () -> ignore (Bigint.mul a b))
  in
  let sampler n =
    let g = Geo.matrix ~n ~alpha:(q 1 2) in
    let rng = Prob.Rng.of_int 1 in
    Staged.stage (fun () -> ignore (M.sample g ~input:(n / 2) rng))
  in
  let table_draw n =
    let tbl = Mech.Sampler.of_row (M.row (Geo.matrix ~n ~alpha:(q 1 2)) (n / 2)) in
    let rng = Prob.Rng.of_int 2 in
    Staged.stage (fun () -> ignore (Mech.Sampler.draw tbl rng))
  in
  let table_build n =
    let row = M.row (Geo.matrix ~n ~alpha:(q 1 2)) (n / 2) in
    Staged.stage (fun () -> ignore (Mech.Sampler.of_row row))
  in
  let float_simplex n =
    Staged.stage (fun () ->
        let a =
          Array.init n (fun i ->
              Array.init (2 * n) (fun j -> if j = i || j = i + n then 1.0 else 0.1))
        in
        let b = Array.make n 1.0 in
        let c = Array.init (2 * n) (fun j -> if j < n then 1.0 else 0.0) in
        ignore (Lp_oracle.Simplex.Floating.solve_standard ~a ~b ~c ()))
  in
  [
    Test.make ~name:"lp:optimal-mech n=3 a=1/2" (lp_solve 3 (q 1 2));
    Test.make ~name:"lp:optimal-mech n=5 a=1/2" (lp_solve 5 (q 1 2));
    Test.make ~name:"lp:optimal-mech n=7 a=1/2" (lp_solve 7 (q 1 2));
    Test.make ~name:"lp:interaction n=5 a=1/2" (interaction 5 (q 1 2));
    Test.make ~name:"geometric:matrix n=16" (geo_build 16);
    Test.make ~name:"geometric:matrix n=64" (geo_build 64);
    Test.make ~name:"multilevel:transition n=8" (transition 8);
    Test.make ~name:"bigint:mul 3^512 * 7^512" (bigint_mul 512);
    Test.make ~name:"bigint:mul 3^4096 * 7^4096" (bigint_mul 4096);
    Test.make ~name:"sampler:exact-row n=32" (sampler 32);
    Test.make ~name:"sampler:table-draw n=32" (table_draw 32);
    Test.make ~name:"sampler:table-build n=32" (table_build 32);
    Test.make ~name:"simplex:float toy n=12" (float_simplex 12);
  ]

let run_perf () =
  let open Bechamel in
  print_endline "=== [PERF] Bechamel micro-benchmarks ===";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let tests = perf_tests () in
  let grouped = Test.make_grouped ~name:"minimax-dp" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with Some (e :: _) -> e | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  let table =
    T.make ~headers:[ "benchmark"; "time/run" ]
      (List.map
         (fun (name, ns) ->
           let human =
             if Float.is_nan ns then "n/a"
             else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
             else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
             else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
             else Printf.sprintf "%.0f ns" ns
           in
           [ name; human ])
         rows)
  in
  T.print table;
  print_newline ()

(* ================================================================= *)
(* Driver                                                            *)
(* ================================================================= *)

let experiments =
  [
    ("fig1", fig1);
    ("table1", table1);
    ("table2", table2);
    ("appendix_b", appendix_b);
    ("lemma1", lemma1);
    ("lemma3", lemma3);
    ("universality", universality);
    ("baselines", baselines);
    ("collusion", collusion);
    ("bayesian", bayesian);
    ("oblivious", oblivious);
    ("least_favorable", least_favorable);
    ("ablation_lp", ablation_lp);
    ("ablation_numeric", ablation_numeric);
    ("resilience", resilience_ladder);
    ("engine", engine_serving);
    ("serving", network_serving);
    ("telemetry", telemetry_plane);
    ("persistence", persistence);
    ("session", session_service);
  ]

(* Experiments are addressable both by harness name ("fig1") and by
   paper-artifact id ("F1"). *)
let lookup name =
  match List.assoc_opt name experiments with
  | Some e -> Some e
  | None -> Option.map snd (List.find_opt (fun (_, e) -> e.E.id = name) experiments)

(* One machine-readable record per experiment run: the bench
   trajectory the roadmap tracks across PRs. Every quantity is either
   an integer or an exact string, so records round-trip through
   Json.of_string losslessly. *)
let bench_record (o : E.outcome) =
  let e = o.E.experiment in
  let verdict, fail_reason =
    match o.E.verdict with
    | E.Pass -> ("pass", Json.Null)
    | E.Info -> ("info", Json.Null)
    | E.Fail why -> ("fail", Json.Str why)
  in
  let pivots, max_coeff_bits, lp_solves, metrics =
    match o.E.obs with
    | None -> (0, 0, 0, Json.Null)
    | Some r ->
      let max_bits =
        Stdlib.max
          (Obs.histogram_max r "simplex.pivot_bits")
          (Obs.histogram_max r "simplex.final_bits")
      in
      ( Obs.counter r "simplex.pivots",
        max_bits,
        Obs.counter r "lp.solves",
        Obs.metrics_to_json r )
  in
  Json.Obj
    [
      ("id", Json.Str e.E.id);
      ("title", Json.Str e.E.title);
      ("verdict", Json.Str verdict);
      ("fail_reason", fail_reason);
      ("wall_ns", Json.Int (Int64.to_int o.E.wall_ns));
      ("wall_ms", Json.Int (Int64.to_int (Int64.div o.E.wall_ns 1_000_000L)));
      ("pivots", Json.Int pivots);
      ("max_coeff_bits", Json.Int max_coeff_bits);
      ("lp_solves", Json.Int lp_solves);
      ("metrics", metrics);
    ]

(* Run a batch, streaming the human report and one BENCH line per
   experiment (when observing); returns the records and overall
   success. *)
let run_batch ~observe es =
  let records = ref [] and ok = ref true in
  List.iter
    (fun e ->
      let o = E.run_streamed ~observe e in
      (match o.E.verdict with E.Fail _ -> ok := false | E.Pass | E.Info -> ());
      let r = bench_record o in
      records := r :: !records;
      if observe then print_endline ("BENCH " ^ Json.to_string r))
    es;
  (List.rev !records, !ok)

(* The provenance stamp: which source produced these numbers, on how
   wide a machine. Shelling out keeps the harness dependency-free; a
   tree that is not a git checkout stamps "unknown" rather than
   failing the bench. *)
let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown")

(* version 2: adds the git_rev / host_cores stamp (v1 carried only the
   records). *)
let trajectory_doc records =
  Json.Obj
    [
      ("schema", Json.Str "minimax-dp/bench-trajectory");
      ("version", Json.Int 2);
      ("git_rev", Json.Str (git_rev ()));
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ("experiments", Json.List records);
    ]

let write_trajectory file records =
  Out_channel.with_open_text file (fun oc ->
      let fmt = Format.formatter_of_out_channel oc in
      Json.pp fmt (trajectory_doc records);
      Format.pp_print_newline fmt ());
  Printf.printf "wrote %s (%d experiment records)\n" file (List.length records)

let usage () =
  prerr_endline
    "usage: main.exe [--no-obs] [--list | perf | --bench-json FILE [name...] | <name-or-id>]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let observe = not (List.mem "--no-obs" args) in
  let args = List.filter (fun a -> a <> "--no-obs") args in
  match args with
  | [ "--list" ] ->
    List.iter
      (fun (name, e) -> Printf.printf "%-16s [%-5s] %s\n" name e.E.id e.E.title)
      experiments
  | [ "perf" ] -> run_perf ()
  | "--bench-json" :: file :: names ->
    let es =
      match names with
      | [] -> List.map snd experiments
      | _ ->
        List.map
          (fun name ->
            match lookup name with
            | Some e -> e
            | None ->
              prerr_endline ("unknown experiment: " ^ name);
              exit 2)
          names
    in
    let records, ok = run_batch ~observe es in
    write_trajectory file records;
    exit (if ok then 0 else 1)
  | [ name ] when Option.is_some (lookup name) ->
    let e = Option.get (lookup name) in
    let _, ok = run_batch ~observe [ e ] in
    exit (if ok then 0 else 1)
  | [] ->
    print_endline "Reproduction harness: Gupte & Sundararajan, \"Universally Optimal";
    print_endline "Privacy Mechanisms for Minimax Agents\" (PODS 2010).";
    print_newline ();
    let _, ok = run_batch ~observe (List.map snd experiments) in
    (if ok then print_endline "All experiments passed."
     else print_endline "Some experiments FAILED (see verdict lines above).");
    print_newline ();
    run_perf ();
    exit (if ok then 0 else 1)
  | _ -> usage ()
