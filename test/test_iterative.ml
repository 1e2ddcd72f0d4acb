(* CG / PCG and the preconditioners. *)

let make_system ?(n = 50) ?(extra = 80) () =
  let rng = Helpers.rng () in
  let a = Helpers.random_sparse_spd rng n ~extra_edges:extra in
  let x_true = Helpers.random_vec rng n in
  let b = Linalg.Sparse.mul_vec a x_true in
  (a, x_true, b)

let test_cg_plain () =
  let a, x_true, b = make_system () in
  let x, stats = Linalg.Cg.solve_sparse ~tol:1e-12 a b in
  Alcotest.(check bool) "converged" true stats.Linalg.Cg.converged;
  Alcotest.(check bool) "accurate" true (Linalg.Vec.rel_error x ~reference:x_true < 1e-8)

let test_cg_jacobi () =
  let a, x_true, b = make_system () in
  let x, stats = Linalg.Cg.solve_sparse ~precond:(Linalg.Cg.jacobi a) ~tol:1e-12 a b in
  Alcotest.(check bool) "converged" true stats.Linalg.Cg.converged;
  Alcotest.(check bool) "accurate" true (Linalg.Vec.rel_error x ~reference:x_true < 1e-8)

let test_cg_ic0 () =
  let a, x_true, b = make_system () in
  let _, plain = Linalg.Cg.solve_sparse ~tol:1e-12 a b in
  let x, stats = Linalg.Cg.solve_sparse ~precond:(Linalg.Cg.ic0 a) ~tol:1e-12 a b in
  Alcotest.(check bool) "converged" true stats.Linalg.Cg.converged;
  Alcotest.(check bool) "accurate" true (Linalg.Vec.rel_error x ~reference:x_true < 1e-8);
  Alcotest.(check bool)
    (Printf.sprintf "ic0 iterations %d <= plain %d" stats.Linalg.Cg.iterations
       plain.Linalg.Cg.iterations)
    true
    (stats.Linalg.Cg.iterations <= plain.Linalg.Cg.iterations)

let test_cg_iteration_budget () =
  let a, _, b = make_system () in
  let _, stats = Linalg.Cg.solve_sparse ~max_iter:2 ~tol:1e-14 a b in
  Alcotest.(check bool) "budget respected" true (stats.Linalg.Cg.iterations <= 2);
  Alcotest.(check bool) "not converged in 2" false stats.Linalg.Cg.converged

let test_cg_zero_rhs () =
  let a, _, _ = make_system ~n:10 ~extra:5 () in
  let x, stats = Linalg.Cg.solve_sparse a (Array.make 10 0.0) in
  Alcotest.(check bool) "trivially converged" true stats.Linalg.Cg.converged;
  Helpers.check_float "zero solution" 0.0 (Linalg.Vec.norm2 x)

let test_jacobi_rejects_zero_diag () =
  let a = Linalg.Sparse.of_triplets ~nrows:2 ~ncols:2 [ (0, 1, 1.0); (1, 0, 1.0) ] in
  Alcotest.(check bool) "zero diagonal rejected" true
    (try
       let (_ : Linalg.Cg.preconditioner) = Linalg.Cg.jacobi a in
       false
     with Invalid_argument _ -> true)

let prop_cg_converges =
  Helpers.qcheck_case ~count:20 "cg converges on random spd systems"
    QCheck.(int_range 5 40)
    (fun n ->
      let rng = Helpers.rng () in
      let a = Helpers.random_sparse_spd rng n ~extra_edges:(2 * n) in
      let x_true = Helpers.random_vec rng n in
      let b = Linalg.Sparse.mul_vec a x_true in
      let x, stats = Linalg.Cg.solve_sparse ~tol:1e-12 a b in
      stats.Linalg.Cg.converged && Linalg.Vec.rel_error x ~reference:x_true < 1e-7)

let suite =
  [
    Alcotest.test_case "cg plain" `Quick test_cg_plain;
    Alcotest.test_case "cg jacobi" `Quick test_cg_jacobi;
    Alcotest.test_case "cg ic0" `Quick test_cg_ic0;
    Alcotest.test_case "cg iteration budget" `Quick test_cg_iteration_budget;
    Alcotest.test_case "cg zero rhs" `Quick test_cg_zero_rhs;
    Alcotest.test_case "jacobi rejects zero diag" `Quick test_jacobi_rejects_zero_diag;
    prop_cg_converges;
  ]
