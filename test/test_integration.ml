(* End-to-end reproduction checks on a small grid: the Table-1 claims in
   miniature. *)

let outcome =
  lazy
    (let spec = Powergrid.Grid_spec.default in
     let vm = Opera.Varmodel.paper_default in
     let options =
       { Opera.Galerkin.default_options with
         Opera.Galerkin.solver = Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 500 } }
     in
     let mc =
       { (Opera.Monte_carlo.default_config ~h:0.125e-9 ~steps:16) with
         Opera.Monte_carlo.samples = 200 }
     in
     Opera.Compare.run ~order:2 ~options ~mc spec vm)

let test_mean_errors_small () =
  let o = Lazy.force outcome in
  let r = o.Opera.Compare.report in
  (* Paper Table 1: avg error in mu between 0.0137% and 0.2%. *)
  Alcotest.(check bool)
    (Printf.sprintf "avg mu error %.4f%% < 0.5%%" r.Opera.Compare.avg_err_mean_pct)
    true
    (r.Opera.Compare.avg_err_mean_pct < 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "max mu error %.4f%% < 2%%" r.Opera.Compare.max_err_mean_pct)
    true
    (r.Opera.Compare.max_err_mean_pct < 2.0)

let test_sigma_errors_moderate () =
  let o = Lazy.force outcome in
  let r = o.Opera.Compare.report in
  (* Paper: avg sigma error 1.5-6.7%; with 200 MC samples the sampling noise
     itself is ~5-10%, so accept a loose band. *)
  Alcotest.(check bool)
    (Printf.sprintf "avg sigma error %.2f%% < 15%%" r.Opera.Compare.avg_err_std_pct)
    true
    (r.Opera.Compare.avg_err_std_pct < 15.0)

let test_three_sigma_band () =
  let o = Lazy.force outcome in
  let r = o.Opera.Compare.report in
  (* Paper: +-3sigma about +-30..46% of the nominal drop. *)
  Alcotest.(check bool)
    (Printf.sprintf "+-3sigma %.1f%% within [15%%, 60%%]"
       r.Opera.Compare.three_sigma_pct_of_nominal_drop)
    true
    (r.Opera.Compare.three_sigma_pct_of_nominal_drop > 15.0
    && r.Opera.Compare.three_sigma_pct_of_nominal_drop < 60.0)

let test_mu_approx_mu0 () =
  let o = Lazy.force outcome in
  let r = o.Opera.Compare.report in
  (* Paper: mu - mu0 negligible as % of VDD. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean shift %.4f%% VDD < 0.05%%" r.Opera.Compare.mean_shift_pct_vdd)
    true
    (r.Opera.Compare.mean_shift_pct_vdd < 0.05)

let test_opera_faster_than_mc () =
  let o = Lazy.force outcome in
  let r = o.Opera.Compare.report in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.1fx > 1 at 200 samples" r.Opera.Compare.speedup)
    true
    (r.Opera.Compare.speedup > 1.0)

let test_probe_histogram_matches_mc () =
  (* Figures 1-2: the OPERA-sampled voltage distribution at the probe node
     tracks the MC histogram. *)
  let o = Lazy.force outcome in
  let response = o.Opera.Compare.response in
  let mc = o.Opera.Compare.mc in
  let node = response.Opera.Response.probes.(0) in
  (* Pick the step with the largest mean drop at the probe. *)
  let step =
    let best = ref 1 and best_drop = ref 0.0 in
    for s = 1 to response.Opera.Response.steps do
      let d = 1.2 -. Opera.Response.mean_at response ~step:s ~node in
      if d > !best_drop then begin
        best_drop := d;
        best := s
      end
    done;
    !best
  in
  let mc_samples = mc.Opera.Monte_carlo.probe_values.(0).(step) in
  let rng = Prob.Rng.create ~seed:123L () in
  let opera_samples =
    Array.init 4000 (fun _ -> Opera.Response.sample_voltage response ~node ~step rng)
  in
  let lo = Float.min (Linalg.Vec.min mc_samples) (Linalg.Vec.min opera_samples) in
  let hi =
    Float.max (Linalg.Vec.max mc_samples) (Linalg.Vec.max opera_samples) +. 1e-9
  in
  let build xs =
    let h = Prob.Histogram.create ~lo ~hi ~bins:12 in
    Prob.Histogram.add_all h xs;
    h
  in
  let h_mc = build mc_samples and h_op = build opera_samples in
  let gap = Prob.Histogram.max_percentage_gap h_mc h_op in
  Alcotest.(check bool) (Printf.sprintf "histogram gap %.1f%% < 10%%" gap) true (gap < 10.0);
  (* KS test should not reject at a strict level. *)
  let p = Prob.Ks.p_value mc_samples opera_samples in
  Alcotest.(check bool) (Printf.sprintf "KS p-value %.4f > 1e-4" p) true (p > 1e-4)

let test_nominal_matches_deterministic_transient () =
  let o = Lazy.force outcome in
  let model = o.Opera.Compare.model in
  let nominal = o.Opera.Compare.nominal in
  (* Spot-check against an independent deterministic run. *)
  let a = model.Opera.Stochastic_model.mna in
  let cfg = Powergrid.Transient.default_config ~h:0.125e-9 ~steps:16 in
  let n = model.Opera.Stochastic_model.n in
  let last = Array.make n 0.0 in
  Powergrid.Transient.run_circuit cfg a ~on_step:(fun _ _ x -> Array.blit x 0 last 0 n);
  let from_compare = Array.sub nominal (16 * n) n in
  Alcotest.(check bool) "nominal trajectory consistent" true
    (Linalg.Vec.approx_equal ~tol:1e-9 last from_compare)

let suite =
  [
    Alcotest.test_case "mean errors small" `Slow test_mean_errors_small;
    Alcotest.test_case "sigma errors moderate" `Slow test_sigma_errors_moderate;
    Alcotest.test_case "3-sigma band (paper ~35%)" `Slow test_three_sigma_band;
    Alcotest.test_case "mu = mu0 (paper claim)" `Slow test_mu_approx_mu0;
    Alcotest.test_case "opera faster than mc" `Slow test_opera_faster_than_mc;
    Alcotest.test_case "probe histogram (figs 1-2)" `Slow test_probe_histogram_matches_mc;
    Alcotest.test_case "nominal consistency" `Slow test_nominal_matches_deterministic_transient;
  ]
