let mat rows = Linalg.Dense.of_arrays rows

let test_basic () =
  let m = mat [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (pair int int)) "dims" (2, 2) (Linalg.Dense.dims m);
  Helpers.check_float "get" 3.0 (Linalg.Dense.get m 1 0);
  let m2 = Linalg.Dense.copy m in
  Linalg.Dense.set m2 0 0 9.0;
  Helpers.check_float "copy is deep" 1.0 (Linalg.Dense.get m 0 0)

let test_identity_transpose () =
  let i3 = Linalg.Dense.identity 3 in
  Helpers.check_dense "identity transpose" i3 (Linalg.Dense.transpose i3);
  let m = mat [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let mt = Linalg.Dense.transpose m in
  Alcotest.(check (pair int int)) "transpose dims" (3, 2) (Linalg.Dense.dims mt);
  Helpers.check_float "transpose entry" 6.0 (Linalg.Dense.get mt 2 1)

let test_matmul () =
  let a = mat [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = mat [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  Helpers.check_dense "matmul"
    (mat [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |])
    (Linalg.Dense.matmul a b);
  Helpers.check_dense "identity is neutral" a (Linalg.Dense.matmul a (Linalg.Dense.identity 2))

let test_matvec () =
  let a = mat [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Helpers.check_vec "matvec" [| 5.0; 11.0 |] (Linalg.Dense.matvec a [| 1.0; 2.0 |]);
  Helpers.check_vec "matvec_t" [| 7.0; 10.0 |] (Linalg.Dense.matvec_t a [| 1.0; 2.0 |])

let test_rows_cols () =
  let a = mat [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Helpers.check_vec "row" [| 3.0; 4.0 |] (Linalg.Dense.row a 1);
  Helpers.check_vec "col" [| 2.0; 4.0 |] (Linalg.Dense.col a 1)

let test_norms_symmetry () =
  let a = mat [| [| 3.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  Helpers.check_float "frobenius" 5.0 (Linalg.Dense.frobenius_norm a);
  Helpers.check_float "max_abs" 4.0 (Linalg.Dense.max_abs a);
  Alcotest.(check bool) "symmetric" true (Linalg.Dense.is_symmetric a);
  Alcotest.(check bool) "not symmetric" false
    (Linalg.Dense.is_symmetric (mat [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]))

let test_scale_add_sub () =
  let a = mat [| [| 1.0; 2.0 |] |] and b = mat [| [| 3.0; 5.0 |] |] in
  Helpers.check_dense "add" (mat [| [| 4.0; 7.0 |] |]) (Linalg.Dense.add a b);
  Helpers.check_dense "sub" (mat [| [| -2.0; -3.0 |] |]) (Linalg.Dense.sub a b);
  Helpers.check_dense "scale" (mat [| [| 2.0; 4.0 |] |]) (Linalg.Dense.scale 2.0 a)

let prop_matmul_assoc =
  let arb =
    QCheck.(triple (array_of_size (Gen.return 9) (float_range (-2.) 2.))
              (array_of_size (Gen.return 9) (float_range (-2.) 2.))
              (array_of_size (Gen.return 9) (float_range (-2.) 2.)))
  in
  Helpers.qcheck_case ~count:50 "matmul associativity" arb (fun (xa, xb, xc) ->
      let of_flat x = Linalg.Dense.init 3 3 (fun i j -> x.((i * 3) + j)) in
      let a = of_flat xa and b = of_flat xb and c = of_flat xc in
      let left = Linalg.Dense.matmul (Linalg.Dense.matmul a b) c in
      let right = Linalg.Dense.matmul a (Linalg.Dense.matmul b c) in
      Linalg.Dense.approx_equal ~tol:1e-7 left right)

let suite =
  [
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "identity/transpose" `Quick test_identity_transpose;
    Alcotest.test_case "matmul" `Quick test_matmul;
    Alcotest.test_case "matvec" `Quick test_matvec;
    Alcotest.test_case "rows/cols" `Quick test_rows_cols;
    Alcotest.test_case "norms/symmetry" `Quick test_norms_symmetry;
    Alcotest.test_case "scale/add/sub" `Quick test_scale_add_sub;
    prop_matmul_assoc;
  ]
