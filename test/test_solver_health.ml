(* Solver health: convergence policies on the Galerkin PCG routes, the
   solve reports coming out of Cg, and the metrics registry the
   instrumented phases feed.

   The starved solver [Mean_pcg { tol = 1e-14; max_iter = 2 }] cannot
   converge on the augmented system — exactly the silent-approximation
   scenario the policies exist for. *)

let vdd = 1.2

let small_model ?(order = 2) () =
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  (spec, Opera.Stochastic_model.build ~order Opera.Varmodel.paper_default ~vdd circuit)

let starved = Opera.Galerkin.Mean_pcg { tol = 1e-14; max_iter = 2 }

let quiet f =
  (* The Warn policy writes to stderr by design; keep the test log clean
     without losing the level the suite started with. *)
  let saved = Util.Log.level () in
  Util.Log.set_level Util.Log.Error;
  Fun.protect ~finally:(fun () -> Util.Log.set_level saved) f

let options ?(solver = starved) ~policy () =
  {
    Opera.Galerkin.default_options with
    Opera.Galerkin.solver;
    policy;
    metrics = Util.Metrics.create ();
  }

(* -- policy: fail ---------------------------------------------------- *)

let test_fail_policy_raises () =
  let _, m = small_model () in
  let options = options ~policy:Opera.Galerkin.Fail () in
  let raised =
    try
      ignore (Opera.Galerkin.solve_dc ~options m);
      false
    with Opera.Galerkin.Solver_diverged (context, report) ->
      Alcotest.(check bool) "context names the dc solve" true
        (String.length context > 0
        && String.sub context 0 2 = "dc");
      Alcotest.(check bool) "report not converged" false
        report.Linalg.Solve_report.converged;
      Alcotest.(check int) "iteration budget respected" 2
        report.Linalg.Solve_report.iterations;
      true
  in
  Alcotest.(check bool) "Solver_diverged raised" true raised

let test_fail_policy_names_step () =
  let _, m = small_model () in
  (* DC converges at a realistic tolerance; step 1 then starves. *)
  let options =
    options ~solver:(Opera.Galerkin.Mean_pcg { tol = 1e-14; max_iter = 2 })
      ~policy:Opera.Galerkin.Fail ()
  in
  match Opera.Galerkin.solve_transient ~options m ~h:0.125e-9 ~steps:2 with
  | exception Opera.Galerkin.Solver_diverged (context, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "context %S names a solve" context)
        true
        (String.length context > 0)
  | _resp, _stats -> Alcotest.fail "starved transient did not raise under Fail"

(* -- policy: warn ----------------------------------------------------- *)

let test_warn_policy_marks_unhealthy () =
  quiet @@ fun () ->
  let _, m = small_model () in
  let options = options ~policy:Opera.Galerkin.Warn () in
  let _resp, stats = Opera.Galerkin.solve_transient ~options m ~h:0.125e-9 ~steps:3 in
  let agg = stats.Opera.Galerkin.health in
  Alcotest.(check int) "every solve recorded" 4 agg.Linalg.Solve_report.solves;
  Alcotest.(check bool) "unconverged solves counted" true
    (agg.Linalg.Solve_report.unconverged > 0);
  Alcotest.(check int) "no fallbacks under warn" 0 agg.Linalg.Solve_report.fallbacks;
  Alcotest.(check bool) "aggregate flags the run unhealthy" false
    (Linalg.Solve_report.agg_healthy agg);
  Alcotest.(check bool) "worst residual far above tol" true
    (agg.Linalg.Solve_report.worst_rel_residual > 1e-14);
  Alcotest.(check int) "stats mirror the aggregate" agg.Linalg.Solve_report.iterations
    stats.Opera.Galerkin.pcg_iterations

(* -- policy: fallback ------------------------------------------------- *)

let residual_norm m x =
  let gt = Opera.Galerkin.assemble_g m in
  let dim = Array.length x in
  let rhs = Array.make dim 0.0 in
  let drain_buf = Array.make m.Opera.Stochastic_model.n 0.0 in
  Opera.Galerkin.rhs_into m ~drain_buf 0.0 rhs;
  let r = Linalg.Vec.sub rhs (Linalg.Sparse.mul_vec gt x) in
  (Linalg.Vec.norm2 r, Linalg.Vec.norm2 rhs)

let test_fallback_policy_repairs () =
  quiet @@ fun () ->
  let _, m = small_model () in
  let metrics = Util.Metrics.create () in
  let options =
    {
      Opera.Galerkin.default_options with
      Opera.Galerkin.solver = Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 2 };
      policy = Opera.Galerkin.Fallback;
      metrics;
    }
  in
  let x = Opera.Galerkin.solve_dc ~options m in
  let rnorm, bnorm = residual_norm m x in
  Alcotest.(check bool)
    (Printf.sprintf "fallback meets the tolerance (rel residual %.3e)" (rnorm /. bnorm))
    true
    (rnorm <= 1e-10 *. bnorm);
  Alcotest.(check int) "fallback counted" 1 (Util.Metrics.counter metrics "galerkin.fallbacks");
  Alcotest.(check bool) "unconverged solve counted" true
    (Util.Metrics.counter metrics "galerkin.pcg_unconverged" >= 1)

let test_fallback_matrix_free () =
  quiet @@ fun () ->
  let _, m = small_model () in
  let options =
    options
      ~solver:(Opera.Galerkin.Matrix_free_pcg { tol = 1e-10; max_iter = 2 })
      ~policy:Opera.Galerkin.Fallback ()
  in
  let x = Opera.Galerkin.solve_dc ~options m in
  let rnorm, bnorm = residual_norm m x in
  Alcotest.(check bool) "matrix-free fallback meets the tolerance" true
    (rnorm <= 1e-10 *. bnorm)

let test_fallback_transient_healthy () =
  quiet @@ fun () ->
  let _, m = small_model () in
  let options = options ~policy:Opera.Galerkin.Fallback () in
  let _resp, stats = Opera.Galerkin.solve_transient ~options m ~h:0.125e-9 ~steps:3 in
  let agg = stats.Opera.Galerkin.health in
  Alcotest.(check bool) "fallbacks recorded" true (agg.Linalg.Solve_report.fallbacks > 0);
  Alcotest.(check bool) "every unconverged solve repaired" true
    (Linalg.Solve_report.agg_healthy agg)

(* -- metrics registry -------------------------------------------------- *)

let test_metrics_json_phases () =
  quiet @@ fun () ->
  let _, m = small_model () in
  let metrics = Util.Metrics.create () in
  let options =
    {
      Opera.Galerkin.default_options with
      Opera.Galerkin.solver = starved;
      policy = Opera.Galerkin.Fallback;
      metrics;
    }
  in
  let _resp, _stats = Opera.Galerkin.solve_transient ~options m ~h:0.125e-9 ~steps:2 in
  let json = Util.Metrics.to_json metrics in
  match Util.Json.parse json with
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  | Ok j ->
      let keys = Util.Json.keys j in
      List.iter
        (fun key ->
          Alcotest.(check bool) (Printf.sprintf "metrics contain %S" key) true
            (List.mem key keys))
        [
          "galerkin.assemble_s"; "galerkin.factor_s"; "galerkin.step_s"; "galerkin.precond_s";
          "galerkin.fallback_s"; "galerkin.fallbacks"; "galerkin.pcg_iterations";
          "galerkin.pcg_unconverged"; "galerkin.precond_applies";
        ];
      (* Counters round-trip through the reader. *)
      let fallbacks =
        Option.bind (Util.Json.member "galerkin.fallbacks" j) (fun v ->
            Option.bind (Util.Json.member "value" v) Util.Json.to_int)
      in
      Alcotest.(check (option int))
        "fallback counter round-trips" (Some (Util.Metrics.counter metrics "galerkin.fallbacks"))
        fallbacks

let test_metrics_sorted_and_reset () =
  let metrics = Util.Metrics.create () in
  Util.Metrics.incr metrics "zzz";
  Util.Metrics.incr metrics "aaa";
  Util.Metrics.observe metrics "mmm" 0.5;
  (match Util.Json.parse (Util.Metrics.to_json metrics) with
  | Error e -> Alcotest.failf "JSON parse: %s" e
  | Ok j -> Alcotest.(check (list string)) "keys sorted" [ "aaa"; "mmm"; "zzz" ] (Util.Json.keys j));
  Util.Metrics.reset metrics;
  Alcotest.(check int) "reset clears counters" 0 (Util.Metrics.counter metrics "zzz");
  Alcotest.(check int) "reset clears histograms" 0 (Util.Metrics.observations metrics "mmm")

(* -- solve reports ------------------------------------------------------ *)

let test_cg_zero_rhs () =
  let rng = Helpers.rng () in
  let a = Helpers.random_sparse_spd rng 12 ~extra_edges:6 in
  let b = Array.make 12 0.0 in
  let x0 = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let x, report =
    Linalg.Cg.solve_report ~matvec:(Linalg.Sparse.mul_vec a) ~b ~x0 ()
  in
  Alcotest.(check bool) "x = 0 exactly" true (Array.for_all (fun v -> v = 0.0) x);
  Alcotest.(check bool) "converged" true report.Linalg.Solve_report.converged;
  Alcotest.(check int) "no iterations" 0 report.Linalg.Solve_report.iterations;
  Helpers.check_float ~eps:0.0 "zero residual" 0.0 report.Linalg.Solve_report.residual_norm

let test_cg_history_ring () =
  let rng = Helpers.rng () in
  let n = 40 in
  let a = Helpers.random_sparse_spd rng n ~extra_edges:30 in
  let b = Helpers.random_vec rng n in
  let x0 = Array.make n 0.0 in
  let _, full =
    Linalg.Cg.solve_report ~history_cap:1000 ~matvec:(Linalg.Sparse.mul_vec a) ~b ~x0 ()
  in
  Alcotest.(check bool) "converged" true full.Linalg.Solve_report.converged;
  let hist = full.Linalg.Solve_report.residual_history in
  Alcotest.(check int) "history = initial residual + one per iteration"
    (full.Linalg.Solve_report.iterations + 1)
    (Array.length hist);
  Helpers.check_close ~rtol:1e-12 "first entry is ||b|| (x0 = 0)" (Linalg.Vec.norm2 b) hist.(0);
  Helpers.check_close ~rtol:1e-9 "last entry is the final residual"
    full.Linalg.Solve_report.residual_norm
    hist.(Array.length hist - 1);
  (* A tight cap keeps only the most recent entries, oldest first. *)
  let cap = 3 in
  let _, capped =
    Linalg.Cg.solve_report ~history_cap:cap ~matvec:(Linalg.Sparse.mul_vec a) ~b ~x0 ()
  in
  let tail = capped.Linalg.Solve_report.residual_history in
  Alcotest.(check int) "capped length" cap (Array.length tail);
  let m = Array.length hist in
  Array.iteri
    (fun i v -> Helpers.check_close ~rtol:1e-12 "ring keeps the tail" hist.(m - cap + i) v)
    tail;
  (* Default: no history allocated. *)
  let _, bare = Linalg.Cg.solve_report ~matvec:(Linalg.Sparse.mul_vec a) ~b ~x0 () in
  Alcotest.(check int) "no history by default" 0
    (Array.length bare.Linalg.Solve_report.residual_history)

let test_report_summary () =
  let r =
    Linalg.Solve_report.make ~solver:"cg" ~iterations:7 ~residual_norm:2e-11 ~rhs_norm:2.0
      ~tol:1e-10 ~converged:true ~wall_seconds:0.25 ()
  in
  Helpers.check_float ~eps:1e-24 "relative residual" 1e-11 r.Linalg.Solve_report.rel_residual;
  let s = Linalg.Solve_report.summary r in
  Alcotest.(check bool) "summary mentions convergence" true
    (String.length s > 0 && String.sub s 0 2 = "cg")

let suite =
  [
    Alcotest.test_case "fail policy raises Solver_diverged" `Quick test_fail_policy_raises;
    Alcotest.test_case "fail policy names the failing solve" `Quick test_fail_policy_names_step;
    Alcotest.test_case "warn policy keeps going but marks unhealthy" `Quick
      test_warn_policy_marks_unhealthy;
    Alcotest.test_case "fallback policy meets the tolerance" `Quick test_fallback_policy_repairs;
    Alcotest.test_case "fallback repairs the matrix-free route" `Quick test_fallback_matrix_free;
    Alcotest.test_case "fallback transient ends healthy" `Quick test_fallback_transient_healthy;
    Alcotest.test_case "metrics JSON carries the solve phases" `Quick test_metrics_json_phases;
    Alcotest.test_case "metrics JSON is sorted; reset clears" `Quick
      test_metrics_sorted_and_reset;
    Alcotest.test_case "cg: zero rhs returns x = 0 immediately" `Quick test_cg_zero_rhs;
    Alcotest.test_case "cg: residual history ring buffer" `Quick test_cg_history_ring;
    Alcotest.test_case "solve report summary" `Quick test_report_summary;
  ]
