let of_triplets = Linalg.Sparse.of_triplets

let test_of_triplets_dedup () =
  let a = of_triplets ~nrows:2 ~ncols:2 [ (0, 0, 1.0); (0, 0, 2.0); (1, 1, -1.0); (1, 1, 1.0) ] in
  Alcotest.(check int) "duplicates merged, zeros dropped" 1 (Linalg.Sparse.nnz a);
  Helpers.check_float "summed" 3.0 (Linalg.Sparse.get a 0 0);
  Helpers.check_float "cancelled" 0.0 (Linalg.Sparse.get a 1 1)

let test_dense_roundtrip () =
  let d = Linalg.Dense.of_arrays [| [| 1.0; 0.0; 2.0 |]; [| 0.0; 3.0; 0.0 |] |] in
  let s = Linalg.Sparse.of_dense d in
  Alcotest.(check int) "nnz" 3 (Linalg.Sparse.nnz s);
  Helpers.check_dense "roundtrip" d (Linalg.Sparse.to_dense s)

let test_mul_vec () =
  let s = of_triplets ~nrows:2 ~ncols:3 [ (0, 0, 1.0); (0, 2, 2.0); (1, 1, 3.0) ] in
  Helpers.check_vec "mul_vec" [| 7.0; 6.0 |] (Linalg.Sparse.mul_vec s [| 1.0; 2.0; 3.0 |])

let test_transpose () =
  let rng = Helpers.rng () in
  let s = Helpers.random_sparse_spd rng 20 ~extra_edges:30 in
  let st = Linalg.Sparse.transpose s in
  Helpers.check_dense "transpose matches dense"
    (Linalg.Dense.transpose (Linalg.Sparse.to_dense s))
    (Linalg.Sparse.to_dense st)

let test_add_axpy () =
  let a = of_triplets ~nrows:2 ~ncols:2 [ (0, 0, 1.0); (1, 0, 2.0) ] in
  let b = of_triplets ~nrows:2 ~ncols:2 [ (0, 0, 3.0); (0, 1, 4.0) ] in
  let sum = Linalg.Sparse.add a b in
  Helpers.check_dense "add"
    (Linalg.Dense.of_arrays [| [| 4.0; 4.0 |]; [| 2.0; 0.0 |] |])
    (Linalg.Sparse.to_dense sum);
  let d = Linalg.Sparse.axpy ~alpha:(-1.0) a a in
  Alcotest.(check int) "self-cancel leaves nothing" 0 (Linalg.Sparse.nnz d)

let test_scale_diag () =
  let a = of_triplets ~nrows:3 ~ncols:3 [ (0, 0, 2.0); (1, 1, 3.0); (2, 0, 1.0) ] in
  Helpers.check_vec "diag" [| 2.0; 3.0; 0.0 |] (Linalg.Sparse.diag a);
  let s = Linalg.Sparse.scale 2.0 a in
  Helpers.check_float "scale" 4.0 (Linalg.Sparse.get s 0 0);
  let z = Linalg.Sparse.scale 0.0 a in
  Alcotest.(check int) "scale by zero empties" 0 (Linalg.Sparse.nnz z);
  let d = Linalg.Sparse.of_diag [| 1.0; 2.0 |] in
  Helpers.check_float "of_diag" 2.0 (Linalg.Sparse.get d 1 1)

let test_kron () =
  let c = Linalg.Dense.of_arrays [| [| 1.0; 2.0 |]; [| 0.0; 3.0 |] |] in
  let a = of_triplets ~nrows:2 ~ncols:2 [ (0, 0, 1.0); (1, 1, 5.0) ] in
  let k = Linalg.Sparse.kron c a in
  Alcotest.(check (pair int int)) "kron dims" (4, 4) (Linalg.Sparse.dims k);
  (* Expected: [[A, 2A], [0, 3A]] blocks. *)
  Helpers.check_float "block (0,0)" 1.0 (Linalg.Sparse.get k 0 0);
  Helpers.check_float "block (0,1)" 2.0 (Linalg.Sparse.get k 0 2);
  Helpers.check_float "block (0,1) second" 10.0 (Linalg.Sparse.get k 1 3);
  Helpers.check_float "block (1,0) empty" 0.0 (Linalg.Sparse.get k 2 0);
  Helpers.check_float "block (1,1)" 15.0 (Linalg.Sparse.get k 3 3)

let test_kron_dense_reference () =
  let rng = Helpers.rng () in
  let c = Linalg.Dense.init 3 3 (fun _ _ -> Prob.Rng.float_range rng (-1.0) 1.0) in
  let a = Helpers.random_sparse_spd rng 4 ~extra_edges:4 in
  let k = Linalg.Sparse.kron c a in
  let ad = Linalg.Sparse.to_dense a in
  let expected =
    Linalg.Dense.init 12 12 (fun i j ->
        Linalg.Dense.get c (i / 4) (j / 4) *. Linalg.Dense.get ad (i mod 4) (j mod 4))
  in
  Helpers.check_dense ~eps:1e-12 "kron vs dense reference" expected (Linalg.Sparse.to_dense k)

let test_permute_sym () =
  let rng = Helpers.rng () in
  let a = Helpers.random_sparse_spd rng 10 ~extra_edges:10 in
  let p = Array.init 10 (fun i -> i) in
  Prob.Rng.shuffle rng p;
  let ap = Linalg.Sparse.permute_sym a p in
  let expected =
    Linalg.Dense.init 10 10 (fun i j -> Linalg.Sparse.get a p.(i) p.(j))
  in
  Helpers.check_dense ~eps:0.0 "permute_sym" expected (Linalg.Sparse.to_dense ap)

let test_lower_upper () =
  let a =
    of_triplets ~nrows:2 ~ncols:2 [ (0, 0, 1.0); (0, 1, 2.0); (1, 0, 3.0); (1, 1, 4.0) ]
  in
  Helpers.check_dense "lower"
    (Linalg.Dense.of_arrays [| [| 1.0; 0.0 |]; [| 3.0; 4.0 |] |])
    (Linalg.Sparse.to_dense (Linalg.Sparse.lower a));
  Helpers.check_dense "upper"
    (Linalg.Dense.of_arrays [| [| 1.0; 2.0 |]; [| 0.0; 4.0 |] |])
    (Linalg.Sparse.to_dense (Linalg.Sparse.upper a))

let test_symmetry_check () =
  let rng = Helpers.rng () in
  let a = Helpers.random_sparse_spd rng 15 ~extra_edges:20 in
  Alcotest.(check bool) "conductance stamp is symmetric" true (Linalg.Sparse.is_symmetric a);
  let b = of_triplets ~nrows:2 ~ncols:2 [ (0, 1, 1.0) ] in
  Alcotest.(check bool) "asymmetric detected" false (Linalg.Sparse.is_symmetric b)

let test_builder_stamp () =
  let b = Linalg.Sparse_builder.create ~nrows:3 ~ncols:3 () in
  Linalg.Sparse_builder.stamp_conductance b (Some 0) (Some 1) 2.0;
  Linalg.Sparse_builder.stamp_conductance b (Some 1) None 3.0;
  let a = Linalg.Sparse_builder.to_csc b in
  Helpers.check_dense "stamped"
    (Linalg.Dense.of_arrays
       [| [| 2.0; -2.0; 0.0 |]; [| -2.0; 5.0; 0.0 |]; [| 0.0; 0.0; 0.0 |] |])
    (Linalg.Sparse.to_dense a)

let test_builder_growth () =
  let b = Linalg.Sparse_builder.create ~capacity:2 ~nrows:100 ~ncols:100 () in
  for i = 0 to 99 do
    Linalg.Sparse_builder.add b i i 1.0;
    Linalg.Sparse_builder.add b i i 1.0
  done;
  Alcotest.(check int) "triplets kept" 200 (Linalg.Sparse_builder.nnz_triplets b);
  let a = Linalg.Sparse_builder.to_csc b in
  Alcotest.(check int) "compressed" 100 (Linalg.Sparse.nnz a);
  Helpers.check_float "summed" 2.0 (Linalg.Sparse.get a 50 50)

let test_mul_vec_matches_dense =
  let arb = QCheck.(array_of_size (Gen.return 5) (float_range (-3.) 3.)) in
  Helpers.qcheck_case ~count:50 "spmv matches dense" arb (fun x ->
      let rng = Helpers.rng () in
      let a = Helpers.random_sparse_spd rng 5 ~extra_edges:5 in
      let y_sparse = Linalg.Sparse.mul_vec a x in
      let y_dense = Linalg.Dense.matvec (Linalg.Sparse.to_dense a) x in
      Linalg.Vec.approx_equal ~tol:1e-9 y_sparse y_dense)

let test_mul_vec_acc () =
  let a =
    of_triplets ~nrows:3 ~ncols:3 [ (0, 0, 2.0); (1, 0, -1.0); (1, 1, 3.0); (2, 2, 0.5) ]
  in
  let x = [| 1.0; 2.0; 4.0 |] in
  let y = [| 10.0; 20.0; 30.0 |] in
  Linalg.Sparse.mul_vec_acc ~alpha:2.0 a x y;
  (* y += 2 * A x with A x = [2; 5; 2] *)
  Helpers.check_vec ~eps:1e-12 "y += alpha Ax" [| 14.0; 30.0; 34.0 |] y;
  (* default alpha = 1 accumulates on top *)
  Linalg.Sparse.mul_vec_acc a x y;
  Helpers.check_vec ~eps:1e-12 "second accumulate" [| 16.0; 35.0; 36.0 |] y;
  (try
     Linalg.Sparse.mul_vec_acc a [| 1.0 |] y;
     Alcotest.fail "short x accepted"
   with Invalid_argument _ -> ());
  (try
     Linalg.Sparse.mul_vec_acc a x [| 1.0 |];
     Alcotest.fail "short y accepted"
   with Invalid_argument _ -> ())

let test_mul_vec_acc_off () =
  let a = of_triplets ~nrows:2 ~ncols:2 [ (0, 0, 1.0); (0, 1, 2.0); (1, 1, -1.0) ] in
  (* x, y are flat block vectors: block 1 of x feeds block 0 of y *)
  let x = [| 9.0; 9.0; 1.0; 3.0 |] in
  let y = [| 1.0; 1.0; 7.0; 7.0 |] in
  Linalg.Sparse.mul_vec_acc_off ~alpha:1.0 a x ~xoff:2 y ~yoff:0;
  (* A [1; 3] = [7; -3] *)
  Helpers.check_vec ~eps:1e-12 "offset blocks" [| 8.0; -2.0; 7.0; 7.0 |] y;
  (try
     Linalg.Sparse.mul_vec_acc_off a x ~xoff:3 y ~yoff:0;
     Alcotest.fail "x overrun accepted"
   with Invalid_argument _ -> ());
  (try
     Linalg.Sparse.mul_vec_acc_off a x ~xoff:0 y ~yoff:3;
     Alcotest.fail "y overrun accepted"
   with Invalid_argument _ -> ())

let test_mul_vec_acc_matches_mul_vec =
  let arb = QCheck.(array_of_size (Gen.return 6) (float_range (-3.) 3.)) in
  Helpers.qcheck_case ~count:50 "mul_vec_acc matches mul_vec" arb (fun x ->
      let rng = Helpers.rng () in
      let a = Helpers.random_sparse_spd rng 6 ~extra_edges:6 in
      let alpha = 1.75 in
      let y = Array.init 6 (fun i -> float_of_int i) in
      let expected =
        let ax = Linalg.Sparse.mul_vec a x in
        Array.init 6 (fun i -> y.(i) +. (alpha *. ax.(i)))
      in
      Linalg.Sparse.mul_vec_acc ~alpha a x y;
      Linalg.Vec.approx_equal ~tol:1e-12 expected y)

(* --- streaming CSC construction (of_stamps) ---------------------------- *)

let test_of_stamps_matches_triplets () =
  let rng = Helpers.rng () in
  let n = 9 in
  let trips =
    List.init 150 (fun _ ->
        (Prob.Rng.int rng n, Prob.Rng.int rng n, Prob.Rng.float_range rng (-2.0) 2.0))
  in
  let reference = of_triplets ~nrows:n ~ncols:n trips in
  let streamed =
    Linalg.Sparse.of_stamps ~nrows:n ~ncols:n (fun stamp ->
        List.iter (fun (i, j, v) -> stamp i j v) trips)
  in
  (* to_csc sorts duplicate runs with an unstable sort while of_stamps
     sums in emission order — equal up to summation rounding, not
     bitwise. *)
  Alcotest.(check bool) "streamed = triplet build" true
    (Linalg.Sparse.approx_equal ~tol:1e-13 reference streamed)

let test_of_stamps_dedup () =
  let a =
    Linalg.Sparse.of_stamps ~nrows:2 ~ncols:2 (fun stamp ->
        stamp 0 0 1.0;
        stamp 0 0 2.0;
        stamp 1 1 (-1.0);
        stamp 1 1 1.0)
  in
  Alcotest.(check int) "duplicates merged, exact zeros dropped" 1 (Linalg.Sparse.nnz a);
  Helpers.check_float "summed" 3.0 (Linalg.Sparse.get a 0 0);
  Helpers.check_float "cancelled" 0.0 (Linalg.Sparse.get a 1 1)

let test_of_stamps_validation () =
  (try
     ignore (Linalg.Sparse.of_stamps ~nrows:2 ~ncols:2 (fun stamp -> stamp 2 0 1.0));
     Alcotest.fail "row out of range accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Linalg.Sparse.of_stamps ~nrows:2 ~ncols:2 (fun stamp -> stamp 0 (-1) 1.0));
     Alcotest.fail "negative column accepted"
   with Invalid_argument _ -> ());
  (* The emit closure runs twice (count, then fill); one that emits a
     different sequence on the second pass must be rejected, not silently
     build a corrupt matrix. *)
  let calls = ref 0 in
  (try
     ignore
       (Linalg.Sparse.of_stamps ~nrows:2 ~ncols:2 (fun stamp ->
            incr calls;
            stamp 0 0 1.0;
            if !calls > 1 then stamp 1 1 1.0));
     Alcotest.fail "unstable emit accepted"
   with Invalid_argument msg ->
     Alcotest.(check bool) "names the replay contract" true
       (String.length msg > 0
       && String.ends_with ~suffix:"emit changed between the counting and fill passes" msg))

let test_of_stamps_metrics () =
  let metrics = Util.Metrics.create () in
  let a =
    Linalg.Sparse.of_stamps ~metrics ~nrows:3 ~ncols:3 (fun stamp ->
        stamp 0 0 1.0;
        stamp 1 1 1.0;
        stamp 1 1 2.0;
        stamp 2 0 4.0)
  in
  Alcotest.(check int) "nnz after merge" 3 (Linalg.Sparse.nnz a);
  Alcotest.(check int) "raw stamps counted" 4 (Util.Metrics.counter metrics "sparse.stream_stamps");
  Alcotest.(check int) "merged nnz counted" 3 (Util.Metrics.counter metrics "sparse.stream_nnz");
  (* 4 raw stamps at 16 bytes + two (ncols+1) int counters *)
  Helpers.check_float "peak bytes observed"
    (float_of_int ((16 * 4) + (8 * 2 * 4)))
    (Util.Metrics.total metrics "sparse.stream_peak_bytes")

let suite =
  [
    Alcotest.test_case "of_triplets dedup" `Quick test_of_triplets_dedup;
    Alcotest.test_case "dense roundtrip" `Quick test_dense_roundtrip;
    Alcotest.test_case "mul_vec" `Quick test_mul_vec;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "add/axpy" `Quick test_add_axpy;
    Alcotest.test_case "scale/diag" `Quick test_scale_diag;
    Alcotest.test_case "kron blocks" `Quick test_kron;
    Alcotest.test_case "kron vs dense" `Quick test_kron_dense_reference;
    Alcotest.test_case "permute_sym" `Quick test_permute_sym;
    Alcotest.test_case "lower/upper" `Quick test_lower_upper;
    Alcotest.test_case "symmetry check" `Quick test_symmetry_check;
    Alcotest.test_case "builder stamping" `Quick test_builder_stamp;
    Alcotest.test_case "builder growth" `Quick test_builder_growth;
    test_mul_vec_matches_dense;
    Alcotest.test_case "mul_vec_acc" `Quick test_mul_vec_acc;
    Alcotest.test_case "mul_vec_acc_off" `Quick test_mul_vec_acc_off;
    test_mul_vec_acc_matches_mul_vec;
    Alcotest.test_case "of_stamps = of_triplets" `Quick test_of_stamps_matches_triplets;
    Alcotest.test_case "of_stamps dedup" `Quick test_of_stamps_dedup;
    Alcotest.test_case "of_stamps validation" `Quick test_of_stamps_validation;
    Alcotest.test_case "of_stamps metrics" `Quick test_of_stamps_metrics;
  ]
