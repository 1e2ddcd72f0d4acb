let solve_transient ?points ?(probes = [||]) (m : Stochastic_model.t) ~h ~steps =
  if h <= 0.0 then invalid_arg "Collocation.solve_transient: step must be positive";
  let basis = m.Stochastic_model.basis in
  let dim = Polychaos.Basis.dim basis in
  let size = Polychaos.Basis.size basis in
  let n = m.Stochastic_model.n in
  let npts = match points with Some p -> p | None -> Polychaos.Basis.order basis + 1 in
  if npts < 1 then invalid_arg "Collocation.solve_transient: need at least one point";
  let families = Polychaos.Basis.families basis in
  let rules = Array.map (fun fam -> Polychaos.Quadrature.gauss fam npts) families in
  (* Accumulated coefficients for every step: coefs.(step).((k * n) + node) *)
  let coefs = Array.init (steps + 1) (fun _ -> Array.make (size * n) 0.0) in
  let runs = ref 0 in
  (* Shared node ordering across all quadrature points. *)
  let perm =
    Linalg.Ordering.compute Linalg.Ordering.Nested_dissection (Stochastic_model.node_pattern m)
  in
  let xi = Array.make dim 0.0 in
  let drain = Array.make n 0.0 in
  let u = Array.make n 0.0 in
  let x = Array.make n 0.0 in
  let cx = Array.make n 0.0 in
  let work = Array.make n 0.0 in
  let rec sweep d weight =
    if d = dim then begin
      incr runs;
      let psi = Polychaos.Basis.eval_all basis xi in
      let g = Stochastic_model.g_of_sample m xi in
      let c = Stochastic_model.c_of_sample m xi in
      (* Excitation pieces at this xi. *)
      let static = Array.make n 0.0 in
      List.iter
        (fun (rank, vec) -> Linalg.Vec.axpy ~alpha:psi.(rank) vec static)
        m.Stochastic_model.u_static_terms;
      let drain_coef =
        List.fold_left
          (fun acc (rank, cf) -> acc +. (cf *. psi.(rank)))
          0.0 m.Stochastic_model.u_drain_coefs
      in
      let inject t =
        Array.blit static 0 u 0 n;
        Linalg.Vec.fill drain 0.0;
        Powergrid.Mna.drain_into m.Stochastic_model.mna t drain;
        Linalg.Vec.axpy ~alpha:drain_coef drain u
      in
      let accumulate step =
        let dst = coefs.(step) in
        for k = 0 to size - 1 do
          let wk = weight *. psi.(k) /. Polychaos.Basis.norm_sq basis k in
          if Util.Floats.nonzero wk then begin
            let base = k * n in
            for i = 0 to n - 1 do
              dst.(base + i) <- dst.(base + i) +. (wk *. x.(i))
            done
          end
        done
      in
      let fdc = Linalg.Sparse_cholesky.factor ~perm g in
      inject 0.0;
      Array.blit u 0 x 0 n;
      Linalg.Sparse_cholesky.solve_in_place_ws fdc ~work x;
      accumulate 0;
      let fbe = Linalg.Sparse_cholesky.factor ~perm (Linalg.Sparse.axpy ~alpha:(1.0 /. h) c g) in
      for step = 1 to steps do
        inject (float_of_int step *. h);
        Linalg.Sparse.mul_vec_into c x cx;
        for i = 0 to n - 1 do
          x.(i) <- u.(i) +. (cx.(i) /. h)
        done;
        Linalg.Sparse_cholesky.solve_in_place_ws fbe ~work x;
        accumulate step
      done
    end
    else begin
      let rule = rules.(d) in
      for q = 0 to npts - 1 do
        xi.(d) <- rule.Polychaos.Quadrature.nodes.(q);
        sweep (d + 1) (weight *. rule.Polychaos.Quadrature.weights.(q))
      done
    end
  in
  sweep 0 1.0;
  let response =
    Response.create ~basis ~n ~steps ~h ~vdd:m.Stochastic_model.vdd ~probes
  in
  Array.iteri (fun step c -> Response.record_step response ~step ~coefs:c) coefs;
  (response, !runs)
