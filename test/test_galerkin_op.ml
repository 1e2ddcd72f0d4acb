(* Matrix-free stochastic Galerkin operator (Galerkin_op): equivalence
   with the assembled Kronecker sum, Matrix_free_pcg solver agreement
   with Direct, bitwise domain determinism, and the no-kron guarantee. *)

let vdd = 1.2

let small_model ?(order = 2) () =
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  Opera.Stochastic_model.build ~order Opera.Varmodel.paper_default ~vdd circuit

(* --- apply == assembled ------------------------------------------------ *)

(* Random per-rank matrices against the explicit Kronecker sum
   [sum_r T_r (x) A_r]. *)
let test_apply_matches_kron_sum =
  let basis = Polychaos.Basis.isotropic Polychaos.Family.hermite ~dim:2 ~order:2 in
  let tp = Polychaos.Triple_product.create basis in
  let n = 5 in
  let size = Polychaos.Basis.size basis in
  let dim = size * n in
  let arb = QCheck.(array_of_size (Gen.return dim) (float_range (-2.) 2.)) in
  Helpers.qcheck_case ~count:40 "apply = Kronecker sum (random terms)" arb (fun x ->
      let rng = Helpers.rng () in
      let terms =
        List.map
          (fun r -> (r, Helpers.random_sparse_spd rng n ~extra_edges:4))
          [ 0; 1; 2 ]
      in
      let assembled =
        List.fold_left
          (fun acc (r, a) ->
            Linalg.Sparse.add acc
              (Linalg.Sparse.kron (Polychaos.Triple_product.coupling_matrix tp r) a))
          (Linalg.Sparse.zero ~nrows:dim ~ncols:dim)
          terms
      in
      let op = Opera.Galerkin_op.of_terms ~tp ~n terms in
      let y_ref = Linalg.Sparse.mul_vec assembled x in
      let y_op = Opera.Galerkin_op.apply op x in
      Linalg.Vec.approx_equal ~tol:1e-10 y_ref y_op)

(* Model-derived operators Gt, Ct and the stepping combination. *)
let test_model_operators_match_assembled =
  let m = small_model () in
  let n = m.Opera.Stochastic_model.n in
  let size = Polychaos.Basis.size m.Opera.Stochastic_model.basis in
  let dim = size * n in
  let gt = Opera.Galerkin.assemble_g m in
  let ct = Opera.Galerkin.assemble_c m in
  let h = 0.25e-9 in
  let mt = Linalg.Sparse.axpy ~alpha:(1.0 /. h) ct gt in
  let op_g = Opera.Galerkin_op.gt m in
  let op_c = Opera.Galerkin_op.ct m in
  let op_m = Opera.Galerkin_op.gt_plus_ct ~ct_scale:(1.0 /. h) m in
  let arb = QCheck.(array_of_size (Gen.return dim) (float_range (-1.) 1.)) in
  Helpers.qcheck_case ~count:20 "Gt/Ct/(Gt+Ct/h) match assembled" arb (fun x ->
      Linalg.Vec.approx_equal ~tol:1e-10 (Linalg.Sparse.mul_vec gt x)
        (Opera.Galerkin_op.apply op_g x)
      && Linalg.Vec.approx_equal ~tol:1e-10 (Linalg.Sparse.mul_vec ct x)
           (Opera.Galerkin_op.apply op_c x)
      && Linalg.Vec.approx_equal ~tol:1e-10 (Linalg.Sparse.mul_vec mt x)
           (Opera.Galerkin_op.apply op_m x))

let test_shapes_and_nnz () =
  let m = small_model () in
  let n = m.Opera.Stochastic_model.n in
  let size = Polychaos.Basis.size m.Opera.Stochastic_model.basis in
  let op = Opera.Galerkin_op.gt m in
  Alcotest.(check int) "dim" (size * n) (Opera.Galerkin_op.dim op);
  Alcotest.(check int) "block_dim" n (Opera.Galerkin_op.block_dim op);
  Alcotest.(check int) "blocks" size (Opera.Galerkin_op.blocks op);
  let term_nnz =
    List.fold_left
      (fun acc (_, a) -> acc + Linalg.Sparse.nnz a)
      0 m.Opera.Stochastic_model.g_terms
  in
  Alcotest.(check int) "nnz = terms + coupling"
    (term_nnz + Opera.Galerkin_op.coupling_nnz op)
    (Opera.Galerkin_op.nnz op);
  let assembled = Opera.Galerkin.assemble_g m in
  Alcotest.(check bool) "matrix-free storage below assembled" true
    (Opera.Galerkin_op.nnz op < Linalg.Sparse.nnz assembled)

(* --- Matrix_free_pcg == Direct ---------------------------------------- *)

let solver_options ?(domains = 1) solver =
  { Opera.Galerkin.default_options with Opera.Galerkin.solver; domains }

let test_matrix_free_dc_matches_direct () =
  let m = small_model () in
  let a_direct = Opera.Galerkin.solve_dc ~options:(solver_options Opera.Galerkin.Direct) m in
  let a_mf =
    Opera.Galerkin.solve_dc
      ~options:
        (solver_options (Opera.Galerkin.Matrix_free_pcg { tol = 1e-12; max_iter = 1000 }))
      m
  in
  Helpers.check_vec ~eps:1e-6 "stochastic DC coefficients" a_direct a_mf

let test_matrix_free_transient_matches_direct () =
  let m = small_model () in
  let steps = 8 in
  let solve solver =
    fst (Opera.Galerkin.solve_transient ~options:(solver_options solver) m ~h:0.25e-9 ~steps)
  in
  let r1 = solve Opera.Galerkin.Direct in
  let r2 = solve (Opera.Galerkin.Matrix_free_pcg { tol = 1e-12; max_iter = 1000 }) in
  let n = m.Opera.Stochastic_model.n in
  for step = 0 to steps do
    for node = 0 to n - 1 do
      Helpers.check_float ~eps:1e-6 "means agree"
        (Opera.Response.mean_at r1 ~step ~node)
        (Opera.Response.mean_at r2 ~step ~node);
      Helpers.check_float ~eps:1e-6 "variances agree"
        (Opera.Response.variance_at r1 ~step ~node)
        (Opera.Response.variance_at r2 ~step ~node)
    done
  done

let test_matrix_free_trapezoidal () =
  let m = small_model () in
  let steps = 6 in
  let solve solver =
    let options =
      { (solver_options solver) with
        Opera.Galerkin.scheme = Powergrid.Transient.Trapezoidal }
    in
    fst (Opera.Galerkin.solve_transient ~options m ~h:0.25e-9 ~steps)
  in
  let r1 = solve Opera.Galerkin.Direct in
  let n = m.Opera.Stochastic_model.n in
  (* Both coupled PCG routes: the assembled SpMV and the matrix-free apply. *)
  List.iter
    (fun solver ->
      let r2 = solve solver in
      for step = 0 to steps do
        for node = 0 to n - 1 do
          Helpers.check_float ~eps:1e-6 "trapezoidal means agree"
            (Opera.Response.mean_at r1 ~step ~node)
            (Opera.Response.mean_at r2 ~step ~node)
        done
      done)
    [
      Opera.Galerkin.Mean_pcg { tol = 1e-12; max_iter = 1000 };
      Opera.Galerkin.Matrix_free_pcg { tol = 1e-12; max_iter = 1000 };
    ]

(* --- domain determinism ------------------------------------------------ *)

let test_apply_bitwise_across_domains () =
  let m = small_model ~order:3 () in
  let op1 = Opera.Galerkin_op.gt ~domains:1 m in
  let dim = Opera.Galerkin_op.dim op1 in
  let rng = Helpers.rng () in
  let x = Helpers.random_vec rng dim in
  let y1 = Opera.Galerkin_op.apply op1 x in
  List.iter
    (fun d ->
      let opd = Opera.Galerkin_op.with_domains op1 d in
      Alcotest.(check int) "resolved domains" d (Opera.Galerkin_op.domains opd);
      let yd = Opera.Galerkin_op.apply opd x in
      Array.iteri
        (fun i v ->
          if v <> y1.(i) then
            Alcotest.failf "apply differs at %d with %d domains: %.17g vs %.17g" i d v
              y1.(i))
        yd)
    [ 2; 3; 4 ]

let test_solve_bitwise_across_domains () =
  let m = small_model () in
  let steps = 6 in
  let solve domains =
    let options =
      solver_options ~domains (Opera.Galerkin.Matrix_free_pcg { tol = 1e-12; max_iter = 1000 })
    in
    fst (Opera.Galerkin.solve_transient ~options m ~h:0.25e-9 ~steps)
  in
  let r1 = solve 1 and r3 = solve 3 in
  let n = m.Opera.Stochastic_model.n in
  for step = 0 to steps do
    for node = 0 to n - 1 do
      Helpers.check_float ~eps:0.0 "sequential = 3 domains (bitwise)"
        (Opera.Response.mean_at r1 ~step ~node)
        (Opera.Response.mean_at r3 ~step ~node)
    done
  done

(* --- AMG mean-block preconditioner ------------------------------------- *)

let test_amg_precond_matches_direct () =
  let m = small_model () in
  let a_direct = Opera.Galerkin.solve_dc ~options:(solver_options Opera.Galerkin.Direct) m in
  let a_amg =
    Opera.Galerkin.solve_dc
      ~options:
        {
          (solver_options (Opera.Galerkin.Mean_pcg { tol = 1e-12; max_iter = 2000 })) with
          Opera.Galerkin.precond = Linalg.Precond.Amg;
        }
      m
  in
  Helpers.check_vec ~eps:1e-6 "AMG-preconditioned DC coefficients" a_direct a_amg

let test_amg_precond_bitwise_across_domains () =
  (* One AMG application is a purely sequential pass, so swapping the
     chaos-block fan-out width must not move a single bit. *)
  let m = small_model () in
  let steps = 4 in
  let solve domains =
    let options =
      {
        (solver_options ~domains (Opera.Galerkin.Matrix_free_pcg { tol = 1e-12; max_iter = 1000 })) with
        Opera.Galerkin.precond = Linalg.Precond.Amg;
      }
    in
    fst (Opera.Galerkin.solve_transient ~options m ~h:0.25e-9 ~steps)
  in
  let r1 = solve 1 and r3 = solve 3 in
  let n = m.Opera.Stochastic_model.n in
  for step = 0 to steps do
    for node = 0 to n - 1 do
      Helpers.check_float ~eps:0.0 "AMG precond: sequential = 3 domains (bitwise)"
        (Opera.Response.mean_at r1 ~step ~node)
        (Opera.Response.mean_at r3 ~step ~node)
    done
  done

(* --- caller-supplied mean block and Gt ----------------------------------- *)

let check_bitwise what reference supplied =
  Alcotest.(check int) (what ^ ": same length") (Array.length reference) (Array.length supplied);
  Array.iteri
    (fun i v ->
      if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float supplied.(i))) then
        Alcotest.failf "%s: entry %d differs: %.17g vs %.17g" what i v supplied.(i))
    reference

(* Every node's mean and variance at every step, flattened. *)
let response_moments r ~n ~steps =
  Array.concat
    (List.init (steps + 1) (fun step ->
         Array.init (2 * n) (fun i ->
             if i < n then Opera.Response.mean_at r ~step ~node:i
             else Opera.Response.variance_at r ~step ~node:(i - n))))

(* A batch group hands its jobs prebuilt artifacts: the iterative DC
   jobs one mean-block preconditioner (and, on the assembled route, one
   Gt), the Direct jobs the factors of Gt and Gt + Ct/h plus the
   assembled Ct.  Artifacts built the default way must leave the results
   bitwise unchanged, and the solver must really use them: no setup or
   assembly of its own. *)
let test_supplied_mean_and_gt_bitwise () =
  let m = small_model () in
  List.iter
    (fun (route, solver) ->
      List.iter
        (fun precond ->
          let what = Printf.sprintf "%s/%s" route (Linalg.Precond.to_string precond) in
          let options metrics = { (solver_options solver) with Opera.Galerkin.precond; metrics } in
          let reference = Opera.Galerkin.solve_dc ~options:(options (Util.Metrics.create ())) m in
          let mean =
            Linalg.Precond.make ~ordering:Opera.Galerkin.default_options.Opera.Galerkin.ordering
              precond (Opera.St_solver.mean_g m)
          in
          let gt = Opera.Galerkin.assemble_g m in
          let metrics = Util.Metrics.create () in
          let krons = Linalg.Sparse.kron_count () in
          let supplied = Opera.Galerkin.solve_dc ~options:(options metrics) ~mean ~gt m in
          Alcotest.(check int) (what ^ ": no mean-block setup") 0
            (Util.Metrics.observations metrics "galerkin.factor_s");
          Alcotest.(check int) (what ^ ": no Gt assembly") krons (Linalg.Sparse.kron_count ());
          check_bitwise what reference supplied)
        [ Linalg.Precond.Cholesky; Linalg.Precond.Ic0; Linalg.Precond.Amg ])
    [
      ("pcg", Opera.Galerkin.Mean_pcg { tol = 1e-12; max_iter = 2000 });
      ("matrix-free", Opera.Galerkin.Matrix_free_pcg { tol = 1e-12; max_iter = 2000 });
    ];
  (* Direct: the factors the default path would build, on the default
     block ordering, with h = 0.25 ns. *)
  let h = 0.25e-9 and steps = 5 in
  let n = m.Opera.Stochastic_model.n in
  let options ?(scheme = Powergrid.Transient.Backward_euler) metrics =
    { (solver_options ~domains:2 Opera.Galerkin.Direct) with Opera.Galerkin.metrics; scheme }
  in
  let gt = Opera.Galerkin.assemble_g m and ct = Opera.Galerkin.assemble_c m in
  let perm = Opera.Galerkin.block_ordering m in
  let fdc = Linalg.Sparse_cholesky.factor ~perm gt in
  let fstep = Linalg.Sparse_cholesky.factor ~perm (Linalg.Sparse.axpy ~alpha:(1.0 /. h) ct gt) in
  let nothing_built what metrics krons =
    List.iter
      (fun name ->
        Alcotest.(check int) (Printf.sprintf "direct %s: no %s" what name) 0
          (Util.Metrics.observations metrics name))
      [ "galerkin.factor_s"; "galerkin.assemble_s" ];
    Alcotest.(check int) ("direct " ^ what ^ ": no assembly") krons (Linalg.Sparse.kron_count ())
  in
  let reference = Opera.Galerkin.solve_dc ~options:(options (Util.Metrics.create ())) m in
  let metrics = Util.Metrics.create () in
  let krons = Linalg.Sparse.kron_count () in
  let supplied = Opera.Galerkin.solve_dc ~options:(options metrics) ~factor:fdc m in
  nothing_built "dc" metrics krons;
  check_bitwise "direct dc" reference supplied;
  let transient ?factors ?ct metrics =
    let r, _ = Opera.Galerkin.solve_transient ~options:(options metrics) ?factors ?ct m ~h ~steps in
    response_moments r ~n ~steps
  in
  let reference = transient (Util.Metrics.create ()) in
  let metrics = Util.Metrics.create () in
  let krons = Linalg.Sparse.kron_count () in
  let supplied = transient ~factors:(fdc, fstep) ~ct metrics in
  nothing_built "transient" metrics krons;
  check_bitwise "direct transient" reference supplied;
  (* The step factor is Gt + Ct/h, and a factor must fit the augmented
     system. *)
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "supplied factors under trapezoidal" (fun () ->
      Opera.Galerkin.solve_transient
        ~options:(options ~scheme:Powergrid.Transient.Trapezoidal (Util.Metrics.create ()))
        ~factors:(fdc, fstep) ~ct m ~h ~steps);
  let nominal = Linalg.Sparse_cholesky.factor (Opera.St_solver.mean_g m) in
  raises "n-dimensional dc factor" (fun () ->
      Opera.Galerkin.solve_dc ~options:(options (Util.Metrics.create ())) ~factor:nominal m);
  raises "n-dimensional step factor" (fun () ->
      Opera.Galerkin.solve_transient ~options:(options (Util.Metrics.create ()))
        ~factors:(fdc, nominal) ~ct m ~h ~steps)

(* --- never assembles the Kronecker product ----------------------------- *)

let test_matrix_free_never_calls_kron () =
  let m = small_model () in
  let before = Linalg.Sparse.kron_count () in
  let _ =
    Opera.Galerkin.solve_transient
      ~options:(solver_options (Opera.Galerkin.Matrix_free_pcg { tol = 1e-10; max_iter = 500 }))
      m ~h:0.25e-9 ~steps:4
  in
  Alcotest.(check int) "no Sparse.kron in matrix-free solve" before
    (Linalg.Sparse.kron_count ());
  (* sanity: the assembled route does call kron, so the counter works *)
  let _ =
    Opera.Galerkin.solve_transient ~options:(solver_options Opera.Galerkin.Direct) m
      ~h:0.25e-9 ~steps:1
  in
  Alcotest.(check bool) "Direct route does assemble" true
    (Linalg.Sparse.kron_count () > before)

(* --- argument validation ----------------------------------------------- *)

let test_apply_into_rejects_aliasing () =
  let m = small_model () in
  let op = Opera.Galerkin_op.gt m in
  let x = Array.make (Opera.Galerkin_op.dim op) 1.0 in
  Alcotest.check_raises "x == y rejected" (Invalid_argument "Galerkin_op.apply_into: x and y must be distinct")
    (fun () -> Opera.Galerkin_op.apply_into op x x);
  let short = Array.make 3 0.0 in
  (try
     Opera.Galerkin_op.apply_into op short (Array.make (Opera.Galerkin_op.dim op) 0.0);
     Alcotest.fail "short x accepted"
   with Invalid_argument _ -> ())

let suite =
  [
    test_apply_matches_kron_sum;
    test_model_operators_match_assembled;
    Alcotest.test_case "shapes and nnz" `Quick test_shapes_and_nnz;
    Alcotest.test_case "matrix-free DC = direct" `Quick test_matrix_free_dc_matches_direct;
    Alcotest.test_case "matrix-free transient = direct" `Quick
      test_matrix_free_transient_matches_direct;
    Alcotest.test_case "matrix-free trapezoidal = direct" `Quick test_matrix_free_trapezoidal;
    Alcotest.test_case "apply bitwise across domains" `Quick test_apply_bitwise_across_domains;
    Alcotest.test_case "solve bitwise across domains" `Quick test_solve_bitwise_across_domains;
    Alcotest.test_case "AMG precond DC = direct" `Quick test_amg_precond_matches_direct;
    Alcotest.test_case "AMG precond bitwise across domains" `Quick
      test_amg_precond_bitwise_across_domains;
    Alcotest.test_case "supplied mean block and Gt = in-place setup (bitwise)" `Quick
      test_supplied_mean_and_gt_bitwise;
    Alcotest.test_case "never calls kron" `Quick test_matrix_free_never_calls_kron;
    Alcotest.test_case "apply_into validation" `Quick test_apply_into_rejects_aliasing;
  ]
