(* Cross-cutting coverage: algebraic properties, harness plumbing, and
   odds and ends not exercised elsewhere. *)

let test_kron_mixed_product =
  (* (C (x) A) (y (x) x) = (C y) (x) (A x) — the identity behind the
     Galerkin matvec. *)
  Helpers.qcheck_case ~count:30 "kron mixed product"
    QCheck.(pair (array_of_size (Gen.return 3) (float_range (-2.) 2.))
              (array_of_size (Gen.return 4) (float_range (-2.) 2.)))
    (fun (y, x) ->
      let rng = Helpers.rng () in
      let cd = Linalg.Dense.init 3 3 (fun _ _ -> Prob.Rng.float_range rng (-1.0) 1.0) in
      let a = Helpers.random_sparse_spd rng 4 ~extra_edges:4 in
      let k = Linalg.Sparse.kron cd a in
      (* y (x) x laid out block-major: block i = y.(i) * x *)
      let yx = Array.init 12 (fun i -> y.(i / 4) *. x.(i mod 4)) in
      let left = Linalg.Sparse.mul_vec k yx in
      let cy = Linalg.Dense.matvec cd y in
      let ax = Linalg.Sparse.mul_vec a x in
      let right = Array.init 12 (fun i -> cy.(i / 4) *. ax.(i mod 4)) in
      Linalg.Vec.approx_equal ~tol:1e-9 left right)

let test_galerkin_rhs_matches_quadrature () =
  (* Block j of Ut(t) must equal E[U(xi, t) psi_j] computed by exact
     Gaussian quadrature over the sampled excitation. *)
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let m = Opera.Stochastic_model.build ~order:2 Opera.Varmodel.paper_default ~vdd:1.2 circuit in
  let n = m.Opera.Stochastic_model.n in
  let size = Polychaos.Basis.size m.Opera.Stochastic_model.basis in
  let t = 0.3e-9 in
  let drain_buf = Array.make n 0.0 in
  let rhs = Array.make (size * n) 0.0 in
  Opera.Galerkin.rhs_into m ~drain_buf t rhs;
  let families = Polychaos.Basis.families m.Opera.Stochastic_model.basis in
  (* check a handful of nodes across all blocks *)
  let nodes = [ 0; n / 3; n - 1 ] in
  for j = 0 to size - 1 do
    List.iter
      (fun node ->
        let expected =
          Polychaos.Quadrature.tensor families 4 (fun xi ->
              let u = Opera.Stochastic_model.u_of_sample m xi t in
              u.(node) *. Polychaos.Basis.eval m.Opera.Stochastic_model.basis j xi)
        in
        Helpers.check_float
          ~eps:(1e-9 +. (1e-9 *. Float.abs expected))
          (Printf.sprintf "rhs block %d node %d" j node)
          expected
          rhs.((j * n) + node))
      nodes
  done

let test_compare_direct_solver () =
  let spec = Helpers.small_grid_spec in
  let mc =
    { (Opera.Monte_carlo.default_config ~h:0.125e-9 ~steps:6) with Opera.Monte_carlo.samples = 40 }
  in
  let outcome =
    Opera.Compare.run ~order:2 ~options:Opera.Galerkin.default_options ~mc spec
      Opera.Varmodel.paper_default
  in
  let report = outcome.Opera.Compare.report in
  Alcotest.(check int) "nodes" (Powergrid.Grid_spec.node_count spec) report.Opera.Compare.nodes;
  Alcotest.(check bool) "finite speedup" true (Float.is_finite report.Opera.Compare.speedup);
  Alcotest.(check bool) "mean error sane" true (report.Opera.Compare.avg_err_mean_pct < 1.0)

let test_response_density () =
  (* A purely Gaussian response: density_at must equal the normal pdf. *)
  let basis = Polychaos.Basis.isotropic Polychaos.Family.hermite ~dim:2 ~order:2 in
  let r = Opera.Response.create ~basis ~n:1 ~steps:1 ~h:1e-9 ~vdd:1.2 ~probes:[| 0 |] in
  let coefs = Array.make 6 0.0 in
  coefs.(0) <- 1.0;
  (* mean *)
  coefs.(1) <- 0.01;
  (* sigma via xi0 *)
  Opera.Response.record_step r ~step:1 ~coefs;
  let moments = Opera.Response.moments_at r ~node:0 ~step:1 in
  Helpers.check_float ~eps:1e-12 "mean" 1.0 moments.Prob.Gram_charlier.mean;
  Helpers.check_float ~eps:1e-12 "variance" 1e-4 moments.Prob.Gram_charlier.variance;
  Helpers.check_float ~eps:1e-9 "skew" 0.0 moments.Prob.Gram_charlier.skewness;
  let density = Opera.Response.density_at r ~node:0 ~step:1 in
  Helpers.check_close ~rtol:1e-9 "peak density" (1.0 /. (0.01 *. sqrt (2.0 *. Float.pi)))
    (density 1.0);
  (* integrates to ~1 *)
  let acc = ref 0.0 in
  let lo = 0.95 and hi = 1.05 and steps = 2000 in
  for i = 0 to steps - 1 do
    let x = lo +. ((hi -. lo) *. (float_of_int i +. 0.5) /. float_of_int steps) in
    acc := !acc +. (density x *. (hi -. lo) /. float_of_int steps)
  done;
  Helpers.check_float ~eps:1e-6 "normalized" 1.0 !acc

let test_sparse_get_edges () =
  let a = Linalg.Sparse.of_triplets ~nrows:3 ~ncols:3 [ (0, 0, 1.0); (2, 0, 2.0); (1, 2, 3.0) ] in
  Helpers.check_float "present" 2.0 (Linalg.Sparse.get a 2 0);
  Helpers.check_float "structural zero" 0.0 (Linalg.Sparse.get a 1 0);
  Helpers.check_float "empty column" 0.0 (Linalg.Sparse.get a 0 1);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Sparse.get: out of bounds") (fun () ->
      ignore (Linalg.Sparse.get a 3 0));
  let b = Linalg.Sparse.map_values Float.abs (Linalg.Sparse.scale (-1.0) a) in
  Helpers.check_float "map_values" 3.0 (Linalg.Sparse.get b 1 2)

let test_table_render () =
  let t = Util.Table.create [ ("name", Util.Table.Left); ("value", Util.Table.Right) ] in
  Util.Table.add_row t [ "alpha"; "1" ];
  Util.Table.add_row t [ "b"; "22" ];
  let s = Util.Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> l = "| alpha | $1    |" || String.length l > 0) lines);
  (* all data lines have equal width *)
  let widths =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.length l > 0)
    |> List.map String.length
  in
  Alcotest.(check bool) "rectangular" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_timer () =
  let (), dt = Util.Timer.time (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0))) in
  Alcotest.(check bool) "nonnegative duration" true (dt >= 0.0 && dt < 10.0)

let test_waveform_zero_duty () =
  let rng = Prob.Rng.create () in
  let w = Powergrid.Waveform.random_activity rng ~peak:1.0 ~period:1e-9 ~duty:0.0 ~cycles:5 in
  List.iter
    (fun t -> Helpers.check_float "silent waveform" 0.0 (Powergrid.Waveform.eval w t))
    [ 0.0; 0.3e-9; 2.2e-9; 4.9e-9 ]

let test_netlist_file_roundtrip () =
  let circuit = Powergrid.Grid_gen.generate Helpers.small_grid_spec in
  let path = Filename.temp_file "opera_test" ".sp" in
  Powergrid.Netlist.write_file path circuit;
  let parsed = Powergrid.Netlist.parse_file path in
  Sys.remove path;
  Alcotest.(check string) "file roundtrip" (Powergrid.Circuit.stats circuit)
    (Powergrid.Circuit.stats parsed.Powergrid.Netlist.circuit)

let test_grid_spec_errors () =
  Alcotest.(check bool) "layer out of range" true
    (try
       ignore (Powergrid.Grid_spec.layer_dims Powergrid.Grid_spec.default 9);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "tiny target rejected" true
    (try
       ignore (Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default 2);
       false
     with Invalid_argument _ -> true)

let test_compare_shape_mismatch () =
  let basis = Polychaos.Basis.isotropic Polychaos.Family.hermite ~dim:2 ~order:2 in
  let r = Opera.Response.create ~basis ~n:2 ~steps:1 ~h:1e-9 ~vdd:1.2 ~probes:[||] in
  let fake_mc =
    {
      Opera.Monte_carlo.n = 3;
      steps = 1;
      h = 1e-9;
      samples = 1;
      mean = Array.make 6 0.0;
      variance = Array.make 6 0.0;
      probe_values = [||];
      elapsed_seconds = 0.0;
    }
  in
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore
         (Opera.Compare.compare ~response:r ~mc:fake_mc ~nominal:(Array.make 4 0.0) ~vdd:1.2
            ~opera_seconds:1.0);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    test_kron_mixed_product;
    Alcotest.test_case "galerkin rhs = quadrature" `Quick test_galerkin_rhs_matches_quadrature;
    Alcotest.test_case "driver direct solver e2e" `Slow test_compare_direct_solver;
    Alcotest.test_case "response density" `Quick test_response_density;
    Alcotest.test_case "sparse get edges" `Quick test_sparse_get_edges;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "timer" `Quick test_timer;
    Alcotest.test_case "waveform zero duty" `Quick test_waveform_zero_duty;
    Alcotest.test_case "netlist file roundtrip" `Quick test_netlist_file_roundtrip;
    Alcotest.test_case "grid spec errors" `Quick test_grid_spec_errors;
    Alcotest.test_case "compare shape mismatch" `Quick test_compare_shape_mismatch;
  ]

let test_svg_map_structure () =
  let spec = Helpers.small_grid_spec in
  let n = Powergrid.Grid_spec.node_count spec in
  let values = Array.init n (fun i -> float_of_int i) in
  let svg = Powergrid.Svg_map.render spec ~values ~title:"test map" ~unit_label:"mV" () in
  Alcotest.(check bool) "opens svg" true (String.length svg > 100 && String.sub svg 0 4 = "<svg");
  Alcotest.(check bool) "closes svg" true
    (let l = String.length svg in
     String.sub svg (l - 7) 6 = "</svg>");
  (* one rect per bottom-layer cell + background + 40 legend segments *)
  let count_substring needle hay =
    let rec go from acc =
      match String.index_from_opt hay from '<' with
      | None -> acc
      | Some i ->
          if i + String.length needle <= String.length hay
             && String.sub hay i (String.length needle) = needle
          then go (i + 1) (acc + 1)
          else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "rect count"
    ((spec.Powergrid.Grid_spec.rows * spec.Powergrid.Grid_spec.cols) + 1 + 40)
    (count_substring "<rect" svg);
  Alcotest.(check bool) "title present" true (count_substring "<text" svg >= 3)

let test_svg_map_constant_values () =
  (* Degenerate (constant) map must not divide by zero. *)
  let spec = Helpers.small_grid_spec in
  let n = Powergrid.Grid_spec.node_count spec in
  let svg = Powergrid.Svg_map.render spec ~values:(Array.make n 1.0) () in
  Alcotest.(check bool) "renders" true (String.length svg > 100)

let test_ibm_style_netlist () =
  (* The public IBM power-grid benchmarks use long underscored node names,
     multiple sources and mixed-case cards; make sure the parser copes. *)
  let text =
    "* IBM-style fragment\n\
     R1 n1_1234_5678 n1_1234_5710 0.012\n\
     r2 n1_1234_5710 N1_2000_5710 0.009\n\
     C7 n1_1234_5678 0 1.2f KIND=fixed\n\
     i_block_3 n1_2000_5710 0 3.4m\n\
     V_pad_1 n1_1234_5678 0 1.8 RS=0.02\n\
     V_PAD_2 N1_2000_5710 0 1.8 RS=0.02\n\
     .op\n\
     .end\n"
  in
  let parsed = Powergrid.Netlist.parse_string text in
  let c = parsed.Powergrid.Netlist.circuit in
  Alcotest.(check int) "3 nodes" 3 (Powergrid.Circuit.node_count c);
  Alcotest.(check int) "2 pads" 2 (Array.length c.Powergrid.Circuit.vsources);
  (* node names are case-insensitive: N1_2000_5710 = n1_2000_5710 *)
  Alcotest.(check int) "2 resistors" 2 (Array.length c.Powergrid.Circuit.resistors);
  let v = Powergrid.Dc.solve (Powergrid.Mna.assemble c) in
  Array.iter
    (fun vi -> Alcotest.(check bool) "voltage sane" true (vi > 1.7 && vi <= 1.8))
    v

let suite =
  suite
  @ [
      Alcotest.test_case "svg map structure" `Quick test_svg_map_structure;
      Alcotest.test_case "svg constant map" `Quick test_svg_map_constant_values;
      Alcotest.test_case "ibm-style netlist" `Quick test_ibm_style_netlist;
    ]
