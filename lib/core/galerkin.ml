type solver =
  | Direct
  | Mean_pcg of { tol : float; max_iter : int }
  | Matrix_free_pcg of { tol : float; max_iter : int }
  | St of { tol : float; max_refine : int; candidates : int; seed : int64 }

let default_st = St { tol = 1e-10; max_refine = 100; candidates = 0; seed = 1L }

type policy = Fail | Warn | Fallback

exception Solver_diverged of string * Linalg.Solve_report.t

let () =
  Printexc.register_printer (function
    | Solver_diverged (context, report) ->
        Some
          (Printf.sprintf "Galerkin.Solver_diverged(%s: %s)" context
             (Linalg.Solve_report.summary report))
    | _ -> None)

type options = {
  solver : solver;
  ordering : Linalg.Ordering.kind;
  precond : Linalg.Precond.kind;
      (* Mean-block backend for the iterative solvers: exact Cholesky
         (default, historical behavior bitwise), ic0, amg, or auto
         (switches on n).  Ignored by Direct. *)
  probes : int array;
  scheme : Powergrid.Transient.scheme;
  domains : int;
  policy : policy;
  metrics : Util.Metrics.t;
  warm_start : bool;
      (* Seed each transient step's Krylov solve from the previous
         step's coefficients, linearly extrapolated once two steps
         exist ([2 a_k - a_{k-1}]).  Off = zero initial guess every
         step.  Affects only iteration counts, not the converged
         solution (same tolerance either way). *)
}

let default_options =
  {
    solver = Direct;
    ordering = Linalg.Ordering.Nested_dissection;
    precond = Linalg.Precond.Cholesky;
    probes = [||];
    scheme = Powergrid.Transient.Backward_euler;
    domains = 0;
    policy = Warn;
    metrics = Util.Metrics.global;
    warm_start = true;
  }

type stats = {
  aug_dim : int;
  nnz_aug : int;
  nnz_factor : int;
  assemble_seconds : float;
  factor_seconds : float;
  step_seconds : float;
  pcg_iterations : int;
  health : Linalg.Solve_report.aggregate;
}

let assemble (m : Stochastic_model.t) terms =
  let size = Polychaos.Basis.size m.basis in
  let zero = Linalg.Sparse.zero ~nrows:(size * m.n) ~ncols:(size * m.n) in
  List.fold_left
    (fun acc (rank, mat) ->
      let coupling = Polychaos.Triple_product.coupling_matrix m.tp rank in
      Linalg.Sparse.add acc (Linalg.Sparse.kron coupling mat))
    zero terms

let assemble_g m = assemble m m.Stochastic_model.g_terms

let assemble_c m = assemble m m.Stochastic_model.c_terms

let rhs_into (m : Stochastic_model.t) ~drain_buf t out =
  let size = Polychaos.Basis.size m.basis in
  if Array.length out <> size * m.n then invalid_arg "Galerkin.rhs_into: bad output size";
  Linalg.Vec.fill out 0.0;
  Stochastic_model.drain_profile_into m t drain_buf;
  List.iter
    (fun (j, vec) ->
      let gamma = Polychaos.Basis.norm_sq m.basis j in
      let base = j * m.n in
      for i = 0 to m.n - 1 do
        out.(base + i) <- out.(base + i) +. (gamma *. vec.(i))
      done)
    m.u_static_terms;
  List.iter
    (fun (j, coef) ->
      let gamma = Polychaos.Basis.norm_sq m.basis j in
      let base = j * m.n in
      let s = gamma *. coef in
      for i = 0 to m.n - 1 do
        out.(base + i) <- out.(base + i) +. (s *. drain_buf.(i))
      done)
    m.u_drain_coefs;
  ignore t

(* Mean-block preconditioner: block j solved with the nominal mean
   solver (exact factor, ic0 or AMG per [Precond.kind]) and divided by
   the basis norm.  All scratch (the output vector, per-chunk block and
   backend workspaces, the inverse norms) is allocated once in the
   closure and reused across applications — the returned vector is
   therefore only valid until the next call, which is exactly the
   contract CG needs.  Blocks are independent, so the loop chunks
   across domains; each chunk owns its scratch, and the shared backend
   is applied through its workspace-explicit in-place solve (always
   bitwise-deterministic: exact sweeps are level-scheduled stable, the
   approximate backends sequential).  Each application is counted and
   timed into [metrics] (from the calling domain only). *)
let mean_block_preconditioner ?(domains = 0) ?(metrics = Util.Metrics.global)
    (m : Stochastic_model.t) mean_solver =
  let size = Polychaos.Basis.size m.basis in
  let n = m.n in
  let d = Util.Parallel.resolve domains in
  let chunks = Int.max 1 (Int.min d size) in
  (* Parallelism goes across blocks first; when only one chunk exists
     (a single-block basis) the spare domains instead level-schedule
     the triangular sweeps inside the nominal-factor solve. *)
  let inner_domains = if chunks > 1 then 1 else d in
  let z = Array.make (size * n) 0.0 in
  let block = Array.init chunks (fun _ -> Array.make n 0.0) in
  let work = Array.init chunks (fun _ -> Linalg.Precond.create_ws mean_solver) in
  let inv_gamma = Array.init size (fun j -> 1.0 /. Polychaos.Basis.norm_sq m.basis j) in
  fun (r : Linalg.Vec.t) ->
    Util.Metrics.incr metrics "galerkin.precond_applies";
    Util.Metrics.span metrics "galerkin.precond_s" (fun () ->
        Util.Parallel.for_chunks ~domains:d size (fun ~chunk ~lo ~hi ->
            let blk = block.(chunk) and wk = work.(chunk) in
            for j = lo to hi - 1 do
              let base = j * n in
              Array.blit r base blk 0 n;
              Linalg.Precond.apply_in_place mean_solver wk ~domains:inner_domains blk;
              let s = inv_gamma.(j) in
              for i = 0 to n - 1 do
                z.(base + i) <- blk.(i) *. s
              done
            done);
        z)

let nominal_matrix (m : Stochastic_model.t) terms =
  match List.assoc_opt 0 terms with
  | Some mat -> mat
  | None -> Linalg.Sparse.zero ~nrows:m.n ~ncols:m.n

(* Order grid nodes once on their shared connectivity pattern, then keep all
   N+1 chaos coefficients of a node adjacent.  This turns the augmented
   factorization into a block version of the mesh factorization: the fill is
   ~ (N+1)^2 times the scalar mesh fill instead of whatever a flat ordering
   of the (N+1) n graph produces, and the (cheap) ordering runs on n nodes
   rather than (N+1) n. *)
let block_ordering ?(kind = Linalg.Ordering.Nested_dissection) (m : Stochastic_model.t) =
  let node_perm = Linalg.Ordering.compute kind (Stochastic_model.node_pattern m) in
  let size = Polychaos.Basis.size m.basis in
  Array.init (size * m.n) (fun idx ->
      let v = idx / size and k = idx mod size in
      (k * m.n) + node_perm.(v))

(* Convergence policy on a finished PCG solve: aggregate the report, then
   accept / raise / warn / repair according to [policy].  [fallback] must
   return a solution meeting the tolerance (in practice: a direct solve
   with the assembled augmented factor, built lazily so healthy runs
   never pay for it). *)
let apply_policy ~policy ~metrics ~agg ~context ~fallback x (report : Linalg.Solve_report.t) =
  Linalg.Solve_report.agg_add agg report;
  Util.Metrics.incr ~by:report.Linalg.Solve_report.iterations metrics "galerkin.pcg_iterations";
  (* Per-solve iteration distribution: this is where the warm-start
     win (fewer iterations per transient step) becomes observable. *)
  Util.Metrics.observe metrics "galerkin.pcg_iters_per_solve"
    (float_of_int report.Linalg.Solve_report.iterations);
  if report.Linalg.Solve_report.converged then x
  else begin
    Util.Metrics.incr metrics "galerkin.pcg_unconverged";
    match policy with
    | Fail -> raise (Solver_diverged (context (), report))
    | Warn ->
        Util.Log.warnf "galerkin %s: %s" (context ()) (Linalg.Solve_report.summary report);
        x
    | Fallback ->
        Linalg.Solve_report.agg_count_fallback agg;
        Util.Metrics.incr metrics "galerkin.fallbacks";
        Util.Log.infof "galerkin %s: %s; falling back to the assembled direct solver"
          (context ())
          (Linalg.Solve_report.summary report);
        Util.Metrics.span metrics "galerkin.fallback_s" fallback
  end

(* Map the shared option record onto the ST backend's knobs; the St
   variant carries what the coupled solvers put in their payloads. *)
let st_options (o : options) ~tol ~max_refine ~candidates ~seed =
  {
    St_solver.candidates;
    seed;
    refine_tol = tol;
    refine_max = max_refine;
    ordering = o.ordering;
    precond = o.precond;
    probes = o.probes;
    domains = o.domains;
    metrics = o.metrics;
  }

let st_stats (m : Stochastic_model.t) (st : St_solver.stats) =
  {
    aug_dim = Polychaos.Basis.size m.basis * m.n;
    nnz_aug = st.St_solver.nnz_point;
    nnz_factor = st.St_solver.nnz_factor;
    assemble_seconds = st.St_solver.select_seconds;
    factor_seconds = st.St_solver.factor_seconds;
    step_seconds = st.St_solver.step_seconds;
    pcg_iterations = st.St_solver.refine_sweeps;
    health = st.St_solver.health;
  }

(* The iterative routes' mean block, [Precond.make] on the nominal G —
   or the caller's prebuilt one (a batch group shares it across jobs). *)
let dc_mean_block ?mean ~options m =
  match mean with
  | Some p -> p
  | None ->
      let ga = nominal_matrix m m.Stochastic_model.g_terms in
      Util.Metrics.span options.metrics "galerkin.factor_s" (fun () ->
          Linalg.Precond.make ~ordering:options.ordering options.precond ga)

(* A factor handed in by a caller must factor the augmented system of
   this model, (N+1) n unknowns. *)
let check_factor_dim ~what (m : Stochastic_model.t) f =
  let dim = Polychaos.Basis.size m.basis * m.n in
  if Linalg.Sparse_cholesky.dim f <> dim then
    invalid_arg
      (Printf.sprintf "Galerkin.%s: factor has dimension %d, the augmented system needs %d" what
         (Linalg.Sparse_cholesky.dim f) dim)

(* Name of a coupled PCG route in policy diagnostics. *)
let pcg_name = function Matrix_free_pcg _ -> "matrix-free-pcg" | _ -> "mean-pcg"

let solve_dc ?(options = default_options) ?factor ?mean ?gt (m : Stochastic_model.t) =
  Option.iter (check_factor_dim ~what:"solve_dc" m) factor;
  let size = Polychaos.Basis.size m.basis in
  let dim = size * m.n in
  let drain_buf = Array.make m.n 0.0 in
  let rhs = Array.make dim 0.0 in
  rhs_into m ~drain_buf 0.0 rhs;
  let metrics = options.metrics in
  let agg = Linalg.Solve_report.agg_create () in
  let gt = lazy (match gt with Some g -> g | None -> assemble_g m) in
  let factor_gt () =
    Linalg.Sparse_cholesky.factor ~perm:(block_ordering ~kind:options.ordering m) (Lazy.force gt)
  in
  match options.solver with
  | Direct ->
      let f =
        match factor with
        | Some f -> f
        | None -> Util.Metrics.span metrics "galerkin.factor_s" factor_gt
      in
      (* The factor may be shared with concurrent jobs, so the solve uses
         scratch owned by this call. *)
      Util.Metrics.span metrics "galerkin.step_s" (fun () ->
          let x = Array.copy rhs in
          Linalg.Sparse_cholesky.solve_in_place_ws f ~domains:options.domains
            ~work:(Array.make dim 0.0) x;
          x)
  | Mean_pcg { tol; max_iter } | Matrix_free_pcg { tol; max_iter } ->
      let mul_gt_into =
        match options.solver with
        | Matrix_free_pcg _ ->
            (* Never assembles the augmented operator: the matvec is the
               block-structured Galerkin_op apply. *)
            Galerkin_op.apply_into (Galerkin_op.gt ~domains:options.domains m)
        | _ -> Linalg.Sparse.mul_vec_into (Lazy.force gt)
      in
      let mv = Array.make dim 0.0 in
      let matvec x =
        mul_gt_into x mv;
        mv
      in
      let ms0 = dc_mean_block ?mean ~options m in
      let precond = mean_block_preconditioner ~domains:options.domains ~metrics m ms0 in
      let x, report =
        Linalg.Cg.solve_report ~precond ~max_iter ~tol ~matvec ~b:rhs ~x0:(Array.make dim 0.0) ()
      in
      (* The matrix-free route assembles Gt only if the fallback runs. *)
      apply_policy ~policy:options.policy ~metrics ~agg
        ~context:(fun () -> Printf.sprintf "dc solve (%s)" (pcg_name options.solver))
        ~fallback:(fun () -> Linalg.Sparse_cholesky.solve (factor_gt ()) rhs)
        x report
  | St { tol; max_refine; candidates; seed } ->
      (* Decoupled testing-point route; every point is refined to [tol]
         (or repaired by its own factorization), so the convergence
         policy never has an approximate iterate to rule on. *)
      let st_opts = st_options options ~tol ~max_refine ~candidates ~seed in
      let coefs, _stats = St_solver.solve_dc ~options:st_opts m in
      coefs

(* Warm-started stepping state shared by the iterative transient
   branches.  [guess] is the in/out buffer handed to the allocation-free
   CG: zero when warm starting is off, the previous accepted solution on
   the first step, and the linear extrapolation [2 a_k - a_{k-1}] once
   two accepted solutions exist.  [accept] rotates the accepted solution
   into [a]/[a_prev].  The extrapolated seed only changes where the
   Krylov iteration *starts* — the tolerance test is unchanged, so
   converged answers agree with cold starts within solver tolerance. *)
let warm_stepper ~warm_start ~dim a =
  let ws = Linalg.Cg.workspace_create dim in
  let guess = Array.make dim 0.0 in
  let a_prev = Array.make dim 0.0 in
  let have_prev = ref false in
  let prepare () =
    if not warm_start then Linalg.Vec.fill guess 0.0
    else if !have_prev then
      for i = 0 to dim - 1 do
        guess.(i) <- (2.0 *. a.(i)) -. a_prev.(i)
      done
    else Array.blit a 0 guess 0 dim
  in
  let accept x =
    Array.blit a 0 a_prev 0 dim;
    have_prev := true;
    Array.blit x 0 a 0 dim
  in
  (ws, guess, prepare, accept)

let solve_transient_coupled ~options ?factors ?ct (m : Stochastic_model.t) ~h ~steps =
  let size = Polychaos.Basis.size m.basis in
  let dim = size * m.n in
  (* Backward Euler factors Gt + Ct/h; trapezoidal factors Gt + 2Ct/h
     (the doubled form of Ct/h + Gt/2, keeping the SPD scaling). *)
  let ct_scale =
    match options.scheme with
    | Powergrid.Transient.Backward_euler -> 1.0 /. h
    | Powergrid.Transient.Trapezoidal -> 2.0 /. h
  in
  let response =
    Response.create ~basis:m.basis ~n:m.n ~steps ~h ~vdd:m.vdd ~probes:options.probes
  in
  let metrics = options.metrics in
  let agg = Linalg.Solve_report.agg_create () in
  let policy = options.policy in
  let drain_buf = Array.make m.n 0.0 in
  let u = Array.make dim 0.0 in
  let rhs = Array.make dim 0.0 in
  let ct_a = Array.make dim 0.0 in
  let assemble_seconds = ref 0.0 in
  let factor_seconds = ref 0.0 in
  let nnz_factor = ref 0 in
  (* Step counter shared with the policy context thunks so diagnostics
     name the failing transient step. *)
  let current_step = ref 0 in
  let step_context what () =
    if !current_step = 0 then Printf.sprintf "dc solve (%s)" what
    else Printf.sprintf "transient step %d (%s)" !current_step what
  in
  (* The assembled augmented matrices, built on first use: the
     matrix-free route touches them only when a fallback needs them. *)
  let gt = lazy (assemble_g m) in
  let ct = lazy (match ct with Some c -> c | None -> assemble_c m) in
  let mt = lazy (Linalg.Sparse.axpy ~alpha:ct_scale (Lazy.force ct) (Lazy.force gt)) in
  let t_assemble = Util.Metrics.start_span () in
  (* Per-solver setup: initial stochastic DC state [a], the implicit step
     [step_of] (solving [Mt a = rhs] in place of [a]), the Ct and Gt
     matvecs used to build right-hand sides, and the operator's stored
     nonzeros (assembled matrix vs matrix-free block data). *)
  let a, step_of, mul_ct_into, mul_gt_into, nnz_aug =
    match options.solver with
    | Direct ->
        let fdc, f, nnz_aug =
          match factors with
          | Some (fdc, f) -> (fdc, f, 0)
          | None ->
              let gt = Lazy.force gt and mt = Lazy.force mt in
              assemble_seconds := Util.Metrics.stop_span metrics "galerkin.assemble_s" t_assemble;
              let t0 = Util.Metrics.start_span () in
              let perm = block_ordering ~kind:options.ordering m in
              let fdc = Linalg.Sparse_cholesky.factor ~perm gt in
              let f = Linalg.Sparse_cholesky.factor ~perm mt in
              factor_seconds := Util.Metrics.stop_span metrics "galerkin.factor_s" t0;
              (fdc, f, Linalg.Sparse.nnz mt)
        in
        nnz_factor := Linalg.Sparse_cholesky.nnz_l f;
        (* Factors may be shared with concurrent jobs, so every solve uses
           scratch owned by this call.  The level-scheduled sweeps run
           when domains allow (bitwise identical to the sequential sweeps
           either way). *)
        let work = Array.make dim 0.0 in
        let a = Array.make dim 0.0 in
        let solve_rhs f =
          Array.blit rhs 0 a 0 dim;
          Linalg.Sparse_cholesky.solve_in_place_ws f ~domains:options.domains ~work a
        in
        rhs_into m ~drain_buf 0.0 rhs;
        solve_rhs fdc;
        (a, (fun () -> solve_rhs f), Linalg.Sparse.mul_vec_into (Lazy.force ct),
         (fun x y -> Linalg.Sparse.mul_vec_into (Lazy.force gt) x y), nnz_aug)
    | Mean_pcg { tol; max_iter } | Matrix_free_pcg { tol; max_iter } ->
        let mul_gt_into, mul_ct_into, mul_mt_into, nnz_aug =
          match options.solver with
          | Matrix_free_pcg _ ->
              (* The augmented operators are never assembled: Gt, Ct and
                 the stepping operator Gt + ct_scale Ct all live as
                 per-rank n x n matrices plus the sparse triple-product
                 coupling. *)
              let domains = options.domains in
              let op_mt = Galerkin_op.gt_plus_ct ~domains ~ct_scale m in
              ( Galerkin_op.apply_into (Galerkin_op.gt ~domains m),
                Galerkin_op.apply_into (Galerkin_op.ct ~domains m),
                Galerkin_op.apply_into op_mt,
                Galerkin_op.nnz op_mt )
          | _ ->
              let mt = Lazy.force mt in
              ( Linalg.Sparse.mul_vec_into (Lazy.force gt),
                Linalg.Sparse.mul_vec_into (Lazy.force ct),
                Linalg.Sparse.mul_vec_into mt,
                Linalg.Sparse.nnz mt )
        in
        assemble_seconds := Util.Metrics.stop_span metrics "galerkin.assemble_s" t_assemble;
        let t0 = Util.Metrics.start_span () in
        let node_perm =
          Linalg.Ordering.compute options.ordering (Stochastic_model.node_pattern m)
        in
        let ga = nominal_matrix m m.g_terms in
        let nominal = Linalg.Sparse.axpy ~alpha:ct_scale (nominal_matrix m m.c_terms) ga in
        let ms0 = Linalg.Precond.make ~perm:node_perm options.precond nominal in
        let msdc0 = Linalg.Precond.make ~perm:node_perm options.precond ga in
        factor_seconds := Util.Metrics.stop_span metrics "galerkin.factor_s" t0;
        (* Direct fallbacks on the assembled augmented matrices, built
           lazily: a healthy run never factors them, and the matrix-free
           route trades its memory wall back for a guaranteed residual
           only when the policy demands it. *)
        let block_factor mat =
          lazy
            (Linalg.Sparse_cholesky.factor
               ~perm:(block_ordering ~kind:options.ordering m)
               (Lazy.force mat))
        in
        let direct_step = block_factor mt and direct_dc = block_factor gt in
        let precond = mean_block_preconditioner ~domains:options.domains ~metrics m ms0 in
        let precond_dc = mean_block_preconditioner ~domains:options.domains ~metrics m msdc0 in
        let name = pcg_name options.solver in
        rhs_into m ~drain_buf 0.0 rhs;
        let mv = Array.make dim 0.0 in
        let matvec mul x =
          mul x mv;
          mv
        in
        let a0, report0 =
          Linalg.Cg.solve_report ~precond:precond_dc ~max_iter ~tol ~matvec:(matvec mul_gt_into)
            ~b:rhs ~x0:(Array.make dim 0.0) ()
        in
        let a =
          apply_policy ~policy ~metrics ~agg ~context:(step_context name)
            ~fallback:(fun () -> Linalg.Sparse_cholesky.solve (Lazy.force direct_dc) rhs)
            a0 report0
        in
        let a = Array.copy a in
        let ws, guess, prepare_guess, accept =
          warm_stepper ~warm_start:options.warm_start ~dim a
        in
        let matvec_mt = matvec mul_mt_into in
        let step_of () =
          prepare_guess ();
          let report =
            Linalg.Cg.solve_report_in_place ~precond ~max_iter ~tol ~ws ~matvec:matvec_mt
              ~b:rhs ~x:guess ()
          in
          let x =
            apply_policy ~policy ~metrics ~agg ~context:(step_context name)
              ~fallback:(fun () -> Linalg.Sparse_cholesky.solve (Lazy.force direct_step) rhs)
              guess report
          in
          accept x
        in
        (a, step_of, mul_ct_into, mul_gt_into, nnz_aug)
    | St _ ->
        (* solve_transient dispatches St before reaching the coupled body. *)
        assert false
  in
  Response.record_step response ~step:0 ~coefs:a;
  let step_of () = Util.Metrics.span metrics "galerkin.step_s" step_of in
  let t_steps = Util.Timer.start () in
  (match options.scheme with
  | Powergrid.Transient.Backward_euler ->
      for k = 1 to steps do
        current_step := k;
        let t = float_of_int k *. h in
        rhs_into m ~drain_buf t u;
        mul_ct_into a ct_a;
        for i = 0 to dim - 1 do
          rhs.(i) <- u.(i) +. (ct_a.(i) /. h)
        done;
        step_of ();
        Response.record_step response ~step:k ~coefs:a
      done
  | Powergrid.Transient.Trapezoidal ->
      (* (Gt + 2Ct/h) a_{k+1} = (2Ct/h - Gt) a_k + Ut_k + Ut_{k+1} *)
      let u_prev = Array.make dim 0.0 in
      let gt_a = Array.make dim 0.0 in
      rhs_into m ~drain_buf 0.0 u_prev;
      for k = 1 to steps do
        current_step := k;
        let t = float_of_int k *. h in
        rhs_into m ~drain_buf t u;
        mul_ct_into a ct_a;
        mul_gt_into a gt_a;
        for i = 0 to dim - 1 do
          rhs.(i) <- ((2.0 /. h) *. ct_a.(i)) -. gt_a.(i) +. u.(i) +. u_prev.(i)
        done;
        step_of ();
        Array.blit u 0 u_prev 0 dim;
        Response.record_step response ~step:k ~coefs:a
      done);
  let step_seconds = Util.Timer.elapsed_s t_steps in
  if not (Linalg.Solve_report.agg_healthy agg) then
    Util.Log.warnf "galerkin transient finished UNHEALTHY: %s"
      (Linalg.Solve_report.agg_summary agg);
  ( response,
    {
      aug_dim = dim;
      nnz_aug;
      nnz_factor = !nnz_factor;
      assemble_seconds = !assemble_seconds;
      factor_seconds = !factor_seconds;
      step_seconds;
      pcg_iterations = agg.Linalg.Solve_report.iterations;
      health = agg;
    } )

let solve_transient ?(options = default_options) ?factors ?ct (m : Stochastic_model.t) ~h ~steps
    =
  if h <= 0.0 then invalid_arg "Galerkin.solve_transient: step must be positive";
  Option.iter
    (fun (fdc, fstep) ->
      (* The step factor is Gt + Ct/h, which only backward Euler steps with. *)
      if options.scheme <> Powergrid.Transient.Backward_euler then
        invalid_arg "Galerkin.solve_transient: supplied factors are backward-Euler factors";
      check_factor_dim ~what:"solve_transient" m fdc;
      check_factor_dim ~what:"solve_transient" m fstep)
    factors;
  match options.solver with
  | St { tol; max_refine; candidates; seed } ->
      (* Decoupled testing-point stepping; per-point factors carry
         across all steps and the point states warm-start structurally.
         Fixed-step backward Euler only — the per-point factors are
         [G(xi) + C(xi)/h] by construction. *)
      if options.scheme <> Powergrid.Transient.Backward_euler then
        invalid_arg "Galerkin.solve_transient: the st solver supports backward Euler only";
      let st_opts = st_options options ~tol ~max_refine ~candidates ~seed in
      let response, st = St_solver.solve_transient ~options:st_opts m ~h ~steps in
      (response, st_stats m st)
  | Direct | Mean_pcg _ | Matrix_free_pcg _ ->
      solve_transient_coupled ~options ?factors ?ct m ~h ~steps
