(* The traced pass: one representative job taken through the program's
   public calls in the engine's order — parse, plan, assemble, order,
   factor or preconditioner setup, tensor, step, recover, record,
   journal — with a span around each call.  The pass keeps its
   artifacts in a store directory of its own under keys of its own, and
   the record it builds must be byte-identical to the record
   Scenario.Engine.run writes for the same job, which checks that the
   spans cover the work the engine really does. *)

module Json = Util.Json
module Job = Scenario.Job
module Store = Scenario.Store
module M = Opera.Stochastic_model

(* What the kernel probes and the per-layer figures need afterwards. *)
type result = {
  record : string;  (* rendered JSONL record *)
  job : Job.t;
  model : M.t;
  factor : Linalg.Sparse_cholesky.t option;  (* a factor the job applied *)
  store_io : (int * bool * int) list;  (* store span id, hit, artifact bytes *)
}

let span = Spans.with_span

(* ---- replicas of the engine's record fields -------------------------- *)

let num v = Json.Num v

let base_fields (job : Job.t) ~probe extra =
  Json.Obj
    ([
       ("job", Json.Str job.name);
       ("analysis", Json.Str (Job.analysis_name job.analysis));
       ("solver", Json.Str (Job.solver_name job.solver));
       ("probe", num (float_of_int probe));
     ]
    @ extra)

let transient_fields response ~vdd ~probe ~steps ~n =
  let worst = ref 0.0 and worst_node = ref 0 and worst_step = ref 1 in
  for step = 1 to steps do
    for node = 0 to n - 1 do
      let g =
        vdd
        -. Opera.Response.mean_at response ~step ~node
        +. (3.0 *. Opera.Response.std_at response ~step ~node)
      in
      if g > !worst then begin
        worst := g;
        worst_node := node;
        worst_step := step
      end
    done
  done;
  [
    ("n", num (float_of_int n));
    ("steps", num (float_of_int steps));
    ("final_mean", num (Opera.Response.mean_at response ~step:steps ~node:probe));
    ("final_std", num (Opera.Response.std_at response ~step:steps ~node:probe));
    ("worst_guarded_drop", num !worst);
    ("worst_guarded_node", num (float_of_int !worst_node));
    ("worst_guarded_step", num (float_of_int !worst_step));
  ]

let dc_fields (model : M.t) ~vdd ~probe coefs =
  let n = model.M.n and basis = model.M.basis in
  let size = Polychaos.Basis.size basis in
  let variance = ref 0.0 in
  for k = 1 to size - 1 do
    let a = coefs.((k * n) + probe) in
    variance := !variance +. (a *. a *. Polychaos.Basis.norm_sq basis k)
  done;
  let worst = ref 0.0 and worst_node = ref 0 in
  for node = 0 to n - 1 do
    let drop = vdd -. coefs.(node) in
    if drop > !worst then begin
      worst := drop;
      worst_node := node
    end
  done;
  [
    ("n", num (float_of_int n));
    ("probe_mean", num coefs.(probe));
    ("probe_std", num (sqrt !variance));
    ("worst_drop_mean", num !worst);
    ("worst_drop_node", num (float_of_int !worst_node));
  ]

(* ---- model inputs, as the engine derives them from a job -------------- *)

let scaled_varmodel s =
  let vm = Opera.Varmodel.paper_default in
  {
    vm with
    Opera.Varmodel.sigma_w = vm.Opera.Varmodel.sigma_w *. s;
    sigma_t = vm.Opera.Varmodel.sigma_t *. s;
    sigma_l = vm.Opera.Varmodel.sigma_l *. s;
  }

let scaled_model (model : M.t) (job : Job.t) =
  {
    model with
    M.u_drain_coefs = List.map (fun (r, c) -> (r, c *. job.drain_scale)) model.M.u_drain_coefs;
  }

let nodes_of (job : Job.t) =
  match job.source with
  | Job.Generated { nodes } -> nodes
  | Job.Netlist _ -> invalid_arg "Pipeline: the benchmark generates its grids"

(* ---- store access with hit/miss and byte accounting ------------------ *)

type ctx = { tr : Spans.t; store : Store.t; io : (int * bool * int) list ref }

let key (job : Job.t) tag = Store.key_of_bytes (Job.operator_bytes job ^ "\x00perfbench:" ^ tag)

let cached c ~kind ~version ~key ~encode ~decode ~build =
  span c.tr ~layer:"store" ("store." ^ kind) (fun () ->
      let sid = Spans.current c.tr in
      let hits = (Store.stats c.store).Store.hits in
      let v = Store.find_or_build c.store ~kind ~version ~key ~encode ~decode ~build in
      let hit = (Store.stats c.store).Store.hits > hits in
      let bytes =
        match Store.path c.store ~kind ~key with
        | Some p -> ( try (Unix.stat p).Unix.st_size with Unix.Unix_error (_, _, _) -> 0)
        | None -> 0
      in
      c.io := (sid, hit, bytes) :: !(c.io);
      v)

let cholesky c ~key build =
  cached c ~kind:"chol" ~version:1 ~key ~encode:Linalg.Sparse_cholesky.encode
    ~decode:Linalg.Sparse_cholesky.decode ~build:(fun () ->
      span c.tr ~layer:"backend" "cholesky" build)

let perm_artifact c ~key build =
  cached c ~kind:"perm" ~version:1 ~key
    ~encode:(fun p e -> Util.Codec.write_int_array e p)
    ~decode:Util.Codec.read_int_array ~build

let tensor c basis =
  span c.tr ~layer:"model" "tensor" (fun () ->
      let e = Util.Codec.encoder () in
      Util.Codec.write_string e "perfbench-triple";
      Array.iter
        (fun f -> Util.Codec.write_string e f.Polychaos.Family.name)
        (Polychaos.Basis.families basis);
      Util.Codec.write_int e (Polychaos.Basis.dim basis);
      Util.Codec.write_int e (Polychaos.Basis.order basis);
      cached c ~kind:"triple" ~version:1
        ~key:(Store.key_of_bytes (Util.Codec.contents e))
        ~encode:Polychaos.Triple_product.encode ~decode:(Polychaos.Triple_product.decode basis)
        ~build:(fun () ->
          span c.tr ~layer:"model" "triple_product.create" (fun () ->
              Polychaos.Triple_product.create basis)))

(* parse -> plan -> assemble (grid, model build with its tensor). *)
let front c ~parse_layer ~parse =
  let jobs = span c.tr ~layer:parse_layer "parse" parse in
  ignore (span c.tr ~layer:"engine" "plan" (fun () -> Scenario.Engine.plan jobs));
  let job = jobs.(0) in
  let spec =
    Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default (nodes_of job)
  in
  let model =
    span c.tr ~layer:"model" "assemble" (fun () ->
        let circuit =
          span c.tr ~layer:"model" "grid.generate" (fun () -> Powergrid.Grid_gen.generate spec)
        in
        span c.tr ~layer:"model" "model.build" (fun () ->
            M.build ~order:job.order ~tp:(tensor c) (scaled_varmodel job.sigma_scale)
              ~vdd:spec.Powergrid.Grid_spec.vdd circuit))
  in
  (job, spec, model)

let journal c registry (job : Job.t) record =
  span c.tr ~layer:"registry" "journal" (fun () -> Scenario.Registry.record registry job record)

let finish c registry job ~record_json ~model ~factor =
  let json, record =
    span c.tr ~layer:"engine" "record" (fun () ->
        let json = record_json () in
        (json, Json.render json))
  in
  journal c registry job json;
  { record; job; model; factor; store_io = !(c.io) }

(* ---- stochastic-testing transient (transient-20k-cold) --------------- *)

let st_transient c registry ~parse_layer ~parse ~domains =
  span c.tr ~layer:"engine" "job" (fun () ->
      let job, spec, model = front c ~parse_layer ~parse in
      let tol, max_refine, candidates, seed =
        match job.solver with
        | Opera.Galerkin.St { tol; max_refine; candidates; seed } ->
            (tol, max_refine, candidates, seed)
        | _ -> invalid_arg "Pipeline.st_transient: not an st job"
      in
      let basis = model.M.basis in
      let perm =
        span c.tr ~layer:"model" "order" (fun () ->
            perm_artifact c ~key:(key job "st-node-ordering") (fun () ->
                Linalg.Ordering.compute Linalg.Ordering.Nested_dissection (M.node_pattern model)))
      in
      let points =
        span c.tr ~layer:"backend" "points" (fun () ->
            Opera.St_solver.select_points ~candidates ~seed basis)
      in
      let f0, fstep =
        span c.tr ~layer:"backend" "factor" (fun () ->
            let f0 =
              cholesky c ~key:(key job "st-g0") (fun () ->
                  Linalg.Sparse_cholesky.factor ~perm (Opera.St_solver.mean_g model))
            in
            let fstep =
              Array.init (Polychaos.Basis.size basis) (fun i ->
                  cholesky c
                    ~key:(key job (Printf.sprintf "st-mt-%h-%d" job.h i))
                    (fun () ->
                      Linalg.Sparse_cholesky.factor ~perm
                        (Opera.St_solver.step_matrix model points i ~h:job.h)))
            in
            (f0, fstep))
      in
      let st_metrics = Util.Metrics.create () in
      let probe = Powergrid.Grid_gen.center_node spec in
      let options =
        {
          Opera.St_solver.candidates;
          seed;
          refine_tol = tol;
          refine_max = max_refine;
          ordering = Linalg.Ordering.Nested_dissection;
          precond = Linalg.Precond.Cholesky;
          probes = [| probe |];
          domains;
          metrics = st_metrics;
        }
      in
      let response =
        span c.tr ~layer:"backend" "step" (fun () ->
            fst
              (Opera.St_solver.solve_transient ~options ~points ~f0 ~fstep
                 (scaled_model model job) ~h:job.h ~steps:job.steps))
      in
      Spans.add_derived c.tr ~layer:"backend" ~within:"step" "recover"
        (Util.Metrics.total st_metrics "st.transform_s");
      let vdd = spec.Powergrid.Grid_spec.vdd and n = model.M.n in
      finish c registry job ~model ~factor:(Some fstep.(0)) ~record_json:(fun () ->
          base_fields job ~probe (transient_fields response ~vdd ~probe ~steps:job.steps ~n)))

(* ---- direct transient on cached factors (serve-mixed-2k) ------------- *)

let direct_transient c registry ~parse_layer ~parse ~domains =
  span c.tr ~layer:"engine" "job" (fun () ->
      let job, spec, model = front c ~parse_layer ~parse in
      let n = model.M.n in
      let dim = Polychaos.Basis.size model.M.basis * n in
      let h = job.h in
      let ct =
        span c.tr ~layer:"model" "galerkin.assemble" (fun () -> Opera.Galerkin.assemble_c model)
      in
      let perm =
        span c.tr ~layer:"model" "order" (fun () ->
            perm_artifact c ~key:(key job "block-ordering") (fun () ->
                Opera.Galerkin.block_ordering model))
      in
      let gt = lazy (Opera.Galerkin.assemble_g model) in
      let fdc, f =
        span c.tr ~layer:"backend" "factor" (fun () ->
            let fdc =
              cholesky c ~key:(key job "gt") (fun () ->
                  Linalg.Sparse_cholesky.factor ~perm (Lazy.force gt))
            in
            let f =
              cholesky c
                ~key:(key job (Printf.sprintf "mt-%h" h))
                (fun () ->
                  Linalg.Sparse_cholesky.factor ~perm
                    (Linalg.Sparse.axpy ~alpha:(1.0 /. h) ct (Lazy.force gt)))
            in
            (fdc, f))
      in
      let probe = Powergrid.Grid_gen.center_node spec in
      let vdd = spec.Powergrid.Grid_spec.vdd in
      let response =
        span c.tr ~layer:"backend" "step" (fun () ->
            let model = scaled_model model job in
            let response =
              Opera.Response.create ~basis:model.M.basis ~n ~steps:job.steps ~h ~vdd
                ~probes:[| probe |]
            in
            let drain_buf = Array.make n 0.0 in
            let u = Array.make dim 0.0 and rhs = Array.make dim 0.0 in
            let ct_a = Array.make dim 0.0 and work = Array.make dim 0.0 in
            let a = Array.make dim 0.0 in
            let recover k =
              span c.tr ~layer:"backend" "recover" (fun () ->
                  Opera.Response.record_step response ~step:k ~coefs:a)
            in
            Opera.Galerkin.rhs_into model ~drain_buf 0.0 a;
            span c.tr ~layer:"kernel" "trisolve" (fun () ->
                Linalg.Sparse_cholesky.solve_in_place_ws fdc ~domains ~work a);
            recover 0;
            for k = 1 to job.steps do
              let t = float_of_int k *. h in
              Opera.Galerkin.rhs_into model ~drain_buf t u;
              span c.tr ~layer:"kernel" "spmv" (fun () -> Linalg.Sparse.mul_vec_into ct a ct_a);
              for i = 0 to dim - 1 do
                rhs.(i) <- u.(i) +. (ct_a.(i) /. h)
              done;
              span c.tr ~layer:"kernel" "trisolve" (fun () ->
                  Array.blit rhs 0 a 0 dim;
                  Linalg.Sparse_cholesky.solve_in_place_ws f ~domains ~work a);
              recover k
            done;
            response)
      in
      finish c registry job ~model ~factor:(Some f)
        ~record_json:(fun () ->
          base_fields job ~probe (transient_fields response ~vdd ~probe ~steps:job.steps ~n)))

(* ---- mean-block PCG DC under AMG (dc-amg-100k-warm) ------------------- *)

let pcg_dc c registry ~parse_layer ~parse ~domains =
  span c.tr ~layer:"engine" "job" (fun () ->
      let job, spec, model = front c ~parse_layer ~parse in
      let tol, max_iter =
        match job.solver with
        | Opera.Galerkin.Mean_pcg { tol; max_iter } -> (tol, max_iter)
        | _ -> invalid_arg "Pipeline.pcg_dc: not a pcg job"
      in
      let model = scaled_model model job in
      let n = model.M.n and basis = model.M.basis in
      let size = Polychaos.Basis.size basis in
      let dim = size * n in
      let gt =
        span c.tr ~layer:"model" "galerkin.assemble" (fun () -> Opera.Galerkin.assemble_g model)
      in
      let ga =
        match List.assoc_opt 0 model.M.g_terms with
        | Some g -> g
        | None -> Linalg.Sparse.zero ~nrows:n ~ncols:n
      in
      let ms0 =
        span c.tr ~layer:"backend" "precond_setup" (fun () ->
            Linalg.Precond.make ~ordering:Opera.Galerkin.default_options.Opera.Galerkin.ordering
              Linalg.Precond.Amg ga)
      in
      let probe = Powergrid.Grid_gen.center_node spec in
      let coefs =
        span c.tr ~layer:"backend" "step" (fun () ->
            let rhs = Array.make dim 0.0 in
            Opera.Galerkin.rhs_into model ~drain_buf:(Array.make n 0.0) 0.0 rhs;
            (* The engine's mean-block preconditioner: every chaos block
               solved by the nominal backend and divided by its norm. *)
            let d = Util.Parallel.resolve domains in
            let chunks = Int.max 1 (Int.min d size) in
            let inner = if chunks > 1 then 1 else d in
            let z = Array.make dim 0.0 in
            let block = Array.init chunks (fun _ -> Array.make n 0.0) in
            let work = Array.init chunks (fun _ -> Linalg.Precond.create_ws ms0) in
            let inv_gamma = Array.init size (fun j -> 1.0 /. Polychaos.Basis.norm_sq basis j) in
            let precond r =
              span c.tr ~layer:"kernel" "vcycle" (fun () ->
                  Util.Parallel.for_chunks ~domains:d size (fun ~chunk ~lo ~hi ->
                      let blk = block.(chunk) and wk = work.(chunk) in
                      for j = lo to hi - 1 do
                        let base = j * n in
                        Array.blit r base blk 0 n;
                        Linalg.Precond.apply_in_place ms0 wk ~domains:inner blk;
                        let s = inv_gamma.(j) in
                        for i = 0 to n - 1 do
                          z.(base + i) <- blk.(i) *. s
                        done
                      done);
                  z)
            in
            let matvec x =
              span c.tr ~layer:"kernel" "spmv" (fun () -> Linalg.Sparse.mul_vec gt x)
            in
            let x, report =
              Linalg.Cg.solve_report ~precond ~max_iter ~tol ~matvec ~b:rhs
                ~x0:(Array.make dim 0.0) ()
            in
            if not report.Linalg.Solve_report.converged then
              invalid_arg "Pipeline.pcg_dc: PCG did not converge";
            x)
      in
      let vdd = spec.Powergrid.Grid_spec.vdd in
      finish c registry job ~model ~factor:None
        ~record_json:(fun () -> base_fields job ~probe (dc_fields model ~vdd ~probe coefs)))
