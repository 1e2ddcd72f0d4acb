exception Invalid_batch of string

type config = {
  cache_dir : string option;
  jobs_parallel : int;
  domains : int;
  metrics : Util.Metrics.t;
  warm_start : bool;
  precond : Linalg.Precond.kind;
  resume : bool;
  shard : (int * int) option;
}

let default_config =
  {
    cache_dir = None;
    jobs_parallel = 1;
    domains = 0;
    metrics = Util.Metrics.global;
    warm_start = true;
    precond = Linalg.Precond.Cholesky;
    resume = false;
    shard = None;
  }

type result = { job : Job.t; record : Util.Json.t; response : Opera.Response.t option }

type summary = {
  jobs : int;
  groups : int;
  factorizations : int;
  cache_hits : int;
  cache_misses : int;
  cache_corrupt : int;
  replayed : int;
  journaled : int;
  registry_corrupt : int;
  elapsed_seconds : float;
}

(* Shard membership is a pure function of the job's position in the
   batch file, so k processes parsing the same file agree on the
   partition without coordinating — and every index lands in exactly
   one shard. *)
let shard_of i ~shards =
  if shards < 1 then invalid_arg "Engine.shard_of: shard count must be >= 1";
  let h = Util.Codec.fnv1a (Printf.sprintf "job-index:%d" i) in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int shards))

let vdd_default = 1.2

(* ---- planning ------------------------------------------------------- *)

let plan jobs =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  Array.iteri
    (fun i job ->
      let s = Job.signature job in
      match Hashtbl.find_opt tbl s with
      | Some l -> l := i :: !l
      | None ->
          let l = ref [ i ] in
          Hashtbl.add tbl s l;
          order := l :: !order)
    jobs;
  List.rev !order |> List.map (fun l -> Array.of_list (List.rev !l)) |> Array.of_list

(* ---- artifact keys --------------------------------------------------- *)

let tagged_key job tag =
  Store.key_of_bytes (Job.operator_bytes job ^ "\x00" ^ tag)

let h_key job tag h =
  let e = Util.Codec.encoder () in
  Util.Codec.write_string e tag;
  Util.Codec.write_float e h;
  Store.key_of_bytes (Job.operator_bytes job ^ "\x00" ^ Util.Codec.contents e)

(* One artifact per (h, testing point): the st route factors a distinct
   stepping matrix per point, and the point set is pinned by the
   operator bytes (candidates + seed live there), so index [i] always
   names the same matrix on a warm run. *)
let st_point_key job h i =
  let e = Util.Codec.encoder () in
  Util.Codec.write_string e "st-mt";
  Util.Codec.write_float e h;
  Util.Codec.write_int e i;
  Store.key_of_bytes (Job.operator_bytes job ^ "\x00" ^ Util.Codec.contents e)

let chol_version = 1

let cached_factor store ~count ~key ~dim build =
  Store.find_or_build store ~kind:"chol" ~version:chol_version ~key
    ~encode:Linalg.Sparse_cholesky.encode
    ~decode:(fun d ->
      let f = Linalg.Sparse_cholesky.decode d in
      if Linalg.Sparse_cholesky.dim f <> dim then
        raise
          (Util.Codec.Corrupt
             (Printf.sprintf "cholesky artifact has dimension %d, operator needs %d"
                (Linalg.Sparse_cholesky.dim f) dim));
      f)
    ~build:(fun () ->
      count ();
      build ())

let tp_provider store basis =
  let e = Util.Codec.encoder () in
  Util.Codec.write_string e "triple";
  Array.iter
    (fun f -> Util.Codec.write_string e f.Polychaos.Family.name)
    (Polychaos.Basis.families basis);
  Util.Codec.write_int e (Polychaos.Basis.dim basis);
  Util.Codec.write_int e (Polychaos.Basis.order basis);
  Store.find_or_build store ~kind:"triple" ~version:1
    ~key:(Store.key_of_bytes (Util.Codec.contents e))
    ~encode:Polychaos.Triple_product.encode
    ~decode:(Polychaos.Triple_product.decode basis)
    ~build:(fun () -> Polychaos.Triple_product.create basis)

(* ---- group contexts --------------------------------------------------

   All artifact IO and every factorization happens here, on the main
   domain, before any job fans out: the store is single-domain, and a
   shared factor must be complete before two jobs apply it
   concurrently (read-only, through workspace-explicit solves). *)

type galerkin_ctx = {
  model : Opera.Stochastic_model.t;
  gspec : Powergrid.Grid_spec.t option;
  gvdd : float;
  fdc : Linalg.Sparse_cholesky.t option;  (** Direct route: factor of Gt *)
  fmt : (float * Linalg.Sparse_cholesky.t) list;  (** Direct route: Gt + Ct/h per h *)
  ct : Linalg.Sparse.t option;  (** assembled Ct for stepping right-hand sides *)
  mean : Linalg.Precond.t option;
      (** iterative routes with DC members: the mean-block
          preconditioner every DC job of the group applies *)
  gt : Linalg.Sparse.t option;  (** [pcg] route with DC members: the assembled Gt *)
}

type special_ctx = {
  sc : Opera.Special_case.t;
  sspec : Powergrid.Grid_spec.t;
  sfdc : Linalg.Sparse_cholesky.t;  (** factor of G *)
  sfbe : (float * Linalg.Sparse_cholesky.t) list;  (** factor of G + C/h per h *)
}

type st_ctx = {
  stmodel : Opera.Stochastic_model.t;
  stspec : Powergrid.Grid_spec.t option;
  stvdd : float;
  stpoints : Opera.St_solver.points;
  stf0 : Linalg.Sparse_cholesky.t option;
      (** factor of the mean G(0); [None] under a non-exact [--precond]
          (the solver builds its own mean-block backend) *)
  stfstep : (float * Linalg.Sparse_cholesky.t array) list;
      (** per h: one factor of [G(xi_i) + C(xi_i)/h] per testing point;
          empty under a non-exact [--precond] *)
}

type ctx = Galerkin_ctx of galerkin_ctx | Special_ctx of special_ctx | St_ctx of st_ctx

let scaled_varmodel s =
  let vm = Opera.Varmodel.paper_default in
  {
    vm with
    Opera.Varmodel.sigma_w = vm.Opera.Varmodel.sigma_w *. s;
    sigma_t = vm.Opera.Varmodel.sigma_t *. s;
    sigma_l = vm.Opera.Varmodel.sigma_l *. s;
  }

let stepping_hs members =
  Array.to_list members
  |> List.filter_map (fun (j : Job.t) ->
         match j.analysis with Job.Dc -> None | _ -> Some j.h)
  |> List.sort_uniq compare

(* The DC members' mean-block preconditioner, built once per group and
   exactly as the solver's own [Precond.make ~ordering] would build it,
   so records stay bitwise: the exact factor through the factor cache,
   the AMG hierarchy through the v2 section store (a warm run maps it
   instead of rebuilding), IC(0) in place.  Hierarchy and IC(0) setups
   count in [engine.precond_builds], exact factors in the
   factorizations. *)
let mean_block store count ~metrics ~precond (rep : Job.t) model =
  let ga = Opera.St_solver.mean_g model in
  let n = model.Opera.Stochastic_model.n in
  let ordering = Opera.Galerkin.default_options.Opera.Galerkin.ordering in
  let built () = Util.Metrics.incr metrics "engine.precond_builds" in
  match Linalg.Precond.resolve precond ~n with
  | Linalg.Precond.Cholesky ->
      Linalg.Precond.of_factor
        (cached_factor store ~count ~key:(tagged_key rep "mean-chol") ~dim:n (fun () ->
             Linalg.Sparse_cholesky.factor ~ordering ga))
  | Linalg.Precond.Amg ->
      Linalg.Precond.of_amg
        (Store.find_or_build_sections store ~kind:Linalg.Amg.artifact_kind
           ~version:Linalg.Amg.artifact_version ~key:(tagged_key rep "mean-amg")
           ~encode:Linalg.Amg.to_frame
           ~decode:(fun d sections ->
             let t = Linalg.Amg.of_frame_sections d sections in
             if Linalg.Amg.dim t <> n then
               raise
                 (Util.Codec.Corrupt
                    (Printf.sprintf "amg artifact has dimension %d, operator needs %d"
                       (Linalg.Amg.dim t) n));
             t)
           ~build:(fun () ->
             built ();
             Linalg.Amg.build ga))
  | kind ->
      built ();
      Linalg.Precond.make ~ordering kind ga

let build_galerkin_ctx store count ~metrics ~precond (rep : Job.t) members =
  let circuit, gvdd, gspec =
    match rep.Job.source with
    | Job.Generated { nodes } ->
        let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default nodes in
        (Powergrid.Grid_gen.generate spec, spec.Powergrid.Grid_spec.vdd, Some spec)
    | Job.Netlist path ->
        let parsed = Powergrid.Netlist.parse_file path in
        (parsed.Powergrid.Netlist.circuit, vdd_default, None)
  in
  let vm = scaled_varmodel rep.sigma_scale in
  let model =
    Opera.Stochastic_model.build ~order:rep.order ~tp:(tp_provider store) vm ~vdd:gvdd circuit
  in
  match rep.solver with
  | Opera.Galerkin.Mean_pcg _ | Opera.Galerkin.Matrix_free_pcg _ ->
      (* Iterative jobs run through the full Galerkin machinery on the
         shared model (and cached triple-product tensor).  The group's
         DC jobs also share one mean-block preconditioner and, on the
         assembled route, one Gt; transient jobs still set up their own
         stepping blocks per job. *)
      let dc =
        Array.exists (fun (j : Job.t) -> match j.analysis with Job.Dc -> true | _ -> false) members
      in
      let mean = if dc then Some (mean_block store count ~metrics ~precond rep model) else None in
      let gt =
        match rep.solver with
        | Opera.Galerkin.Mean_pcg _ when dc -> Some (Opera.Galerkin.assemble_g model)
        | _ -> None
      in
      Galerkin_ctx { model; gspec; gvdd; fdc = None; fmt = []; ct = None; mean; gt }
  | Opera.Galerkin.Direct ->
      let size = Polychaos.Basis.size model.Opera.Stochastic_model.basis in
      let dim = size * model.Opera.Stochastic_model.n in
      let perm =
        Store.find_or_build store ~kind:"perm" ~version:1 ~key:(tagged_key rep "block-ordering")
          ~encode:(fun p e -> Util.Codec.write_int_array e p)
          ~decode:(fun d ->
            let p = Util.Codec.read_int_array d in
            if Array.length p <> dim || not (Linalg.Perm.is_valid p) then
              raise (Util.Codec.Corrupt "perm artifact does not match the operator");
            p)
          ~build:(fun () -> Opera.Galerkin.block_ordering model)
      in
      let gt = lazy (Opera.Galerkin.assemble_g model) in
      let fdc =
        cached_factor store ~count ~key:(tagged_key rep "gt") ~dim (fun () ->
            Linalg.Sparse_cholesky.factor ~perm (Lazy.force gt))
      in
      let hs = stepping_hs members in
      let ct = if hs = [] then None else Some (Opera.Galerkin.assemble_c model) in
      let fmt =
        List.map
          (fun h ->
            let f =
              cached_factor store ~count ~key:(h_key rep "mt" h) ~dim (fun () ->
                  Linalg.Sparse_cholesky.factor ~perm
                    (Linalg.Sparse.axpy ~alpha:(1.0 /. h) (Option.get ct) (Lazy.force gt)))
            in
            (h, f))
          hs
      in
      Galerkin_ctx { model; gspec; gvdd; fdc = Some fdc; fmt; ct; mean = None; gt = None }
  | Opera.Galerkin.St { candidates; seed; _ } ->
      (* Decoupled point solves on grid-sized (n, not size*n) matrices.
         Selection is deterministic given (basis, candidates, seed) and
         cheap next to a factorization, so only the factors and the node
         ordering go through the store. *)
      let n = model.Opera.Stochastic_model.n in
      let points =
        Opera.St_solver.select_points ~candidates ~seed model.Opera.Stochastic_model.basis
      in
      let size = Polychaos.Basis.size model.Opera.Stochastic_model.basis in
      let perm =
        Store.find_or_build store ~kind:"perm" ~version:1
          ~key:(tagged_key rep "st-node-ordering")
          ~encode:(fun p e -> Util.Codec.write_int_array e p)
          ~decode:(fun d ->
            let p = Util.Codec.read_int_array d in
            if Array.length p <> n || not (Linalg.Perm.is_valid p) then
              raise (Util.Codec.Corrupt "st node ordering does not match the grid");
            p)
          ~build:(fun () ->
            Linalg.Ordering.compute Linalg.Ordering.Nested_dissection
              (Opera.Stochastic_model.node_pattern model))
      in
      (* Under a non-exact preconditioner the engine caches no factors at
         all: passing [f0]/[fstep] would pin the solver's exact path, and
         at the node counts where ic0/amg matter the N+1 per-point
         stepping factors are exactly the memory this knob avoids. *)
      let exact = precond = Linalg.Precond.Cholesky in
      let stf0 =
        if not exact then None
        else
          Some
            (cached_factor store ~count ~key:(tagged_key rep "st-g0") ~dim:n (fun () ->
                 Linalg.Sparse_cholesky.factor ~perm (Opera.St_solver.mean_g model)))
      in
      let stfstep =
        if not exact then []
        else
          List.map
            (fun h ->
              let fs =
                Array.init size (fun i ->
                    cached_factor store ~count ~key:(st_point_key rep h i) ~dim:n (fun () ->
                        Linalg.Sparse_cholesky.factor ~perm
                          (Opera.St_solver.step_matrix model points i ~h)))
              in
              (h, fs))
            (stepping_hs members)
      in
      St_ctx { stmodel = model; stspec = gspec; stvdd = gvdd; stpoints = points; stf0; stfstep }

let build_special_ctx store count (rep : Job.t) members =
  let regions, lambda =
    match rep.Job.analysis with
    | Job.Special { regions; lambda } -> (regions, lambda)
    | _ -> invalid_arg "Engine.build_special_ctx: not a special-case job"
  in
  let nodes =
    match rep.source with
    | Job.Generated { nodes } -> nodes
    | Job.Netlist _ ->
        (* Job.of_json rejects this combination; keep the invariant local. *)
        invalid_arg "Engine.build_special_ctx: special-case jobs need a generated grid"
  in
  let rx, ry = Job.region_split regions in
  if rx * ry <> regions then
    (* Job.of_json rejects these; a hand-built job must not silently run
       with a different region count than its signature was hashed on. *)
    invalid_arg
      (Printf.sprintf "Engine.build_special_ctx: regions %d is not a near-square rx*ry tiling"
         regions);
  let sspec =
    {
      (Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default nodes) with
      Powergrid.Grid_spec.regions_x = rx;
      regions_y = ry;
    }
  in
  let circuit = Powergrid.Grid_gen.generate sspec in
  let leaks =
    Array.init
      (sspec.Powergrid.Grid_spec.rows * sspec.Powergrid.Grid_spec.cols)
      (fun node -> (node, Powergrid.Grid_gen.region_of_node sspec node, 5e-6))
  in
  let sc =
    Opera.Special_case.make ~order:rep.order ~regions ~lambda ~leaks
      ~vdd:sspec.Powergrid.Grid_spec.vdd circuit
  in
  let g = Powergrid.Mna.g_total sc.Opera.Special_case.mna in
  let n = sc.Opera.Special_case.mna.Powergrid.Mna.n in
  let sfdc =
    cached_factor store ~count ~key:(tagged_key rep "g") ~dim:n (fun () ->
        Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection g)
  in
  let hs = stepping_hs members in
  let c = lazy (Powergrid.Mna.c_total sc.Opera.Special_case.mna) in
  let sfbe =
    List.map
      (fun h ->
        let f =
          cached_factor store ~count ~key:(h_key rep "be" h) ~dim:n (fun () ->
              Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection
                (Linalg.Sparse.axpy ~alpha:(1.0 /. h) (Lazy.force c) g))
        in
        (h, f))
      hs
  in
  Special_ctx { sc; sspec; sfdc; sfbe }

let build_ctx store count ~metrics ~precond (rep : Job.t) members =
  match rep.analysis with
  | Job.Special _ -> build_special_ctx store count rep members
  | Job.Dc | Job.Transient | Job.Yield _ ->
      build_galerkin_ctx store count ~metrics ~precond rep members

(* ---- per-job execution ----------------------------------------------- *)

let resolve_probe (job : Job.t) spec n =
  match job.probe with
  | Some p -> p (* range-checked against n in [run], before jobs fan out *)
  | None -> (
      match spec with Some s -> Powergrid.Grid_gen.center_node s | None -> n / 2)

let scaled_model (model : Opera.Stochastic_model.t) (job : Job.t) =
  if Util.Floats.equal_exact job.drain_scale 1.0 then model
  else
    {
      model with
      Opera.Stochastic_model.u_drain_coefs =
        List.map
          (fun (rank, c) -> (rank, c *. job.drain_scale))
          model.Opera.Stochastic_model.u_drain_coefs;
    }

let num v = Util.Json.Num v

let base_fields (job : Job.t) ~probe extra =
  Util.Json.Obj
    ([
       ("job", Util.Json.Str job.name);
       ("analysis", Util.Json.Str (Job.analysis_name job.analysis));
       ("solver", Util.Json.Str (Job.solver_name job.solver));
       ("probe", num (float_of_int probe));
     ]
    @ extra)

(* DC moments straight from the augmented coefficient vector: block 0 is
   the mean, the variance is the norm-weighted sum of squares of the
   higher blocks. *)
let dc_record (job : Job.t) ~vdd ~(model : Opera.Stochastic_model.t) ~probe coefs =
  let n = model.Opera.Stochastic_model.n in
  let basis = model.Opera.Stochastic_model.basis in
  let size = Polychaos.Basis.size basis in
  let variance_at node =
    let acc = ref 0.0 in
    for k = 1 to size - 1 do
      let a = coefs.((k * n) + node) in
      acc := !acc +. (a *. a *. Polychaos.Basis.norm_sq basis k)
    done;
    !acc
  in
  let worst = ref 0.0 and worst_node = ref 0 in
  for node = 0 to n - 1 do
    let drop = vdd -. coefs.(node) in
    if drop > !worst then begin
      worst := drop;
      worst_node := node
    end
  done;
  base_fields job ~probe
    [
      ("n", num (float_of_int n));
      ("probe_mean", num coefs.(probe));
      ("probe_std", num (sqrt (variance_at probe)));
      ("worst_drop_mean", num !worst);
      ("worst_drop_node", num (float_of_int !worst_node));
    ]

let guarded_worst response ~vdd ~steps ~n =
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
  (!worst, !worst_node, !worst_step)

let transient_fields response ~vdd ~probe ~steps ~n =
  let worst, worst_node, worst_step = guarded_worst response ~vdd ~steps ~n in
  [
    ("n", num (float_of_int n));
    ("steps", num (float_of_int steps));
    ("final_mean", num (Opera.Response.mean_at response ~step:steps ~node:probe));
    ("final_std", num (Opera.Response.std_at response ~step:steps ~node:probe));
    ("worst_guarded_drop", num worst);
    ("worst_guarded_node", num (float_of_int worst_node));
    ("worst_guarded_step", num (float_of_int worst_step));
  ]

let yield_fields response ~vdd ~steps ~budget_pct =
  let budget = budget_pct /. 100.0 *. vdd in
  let worst_p = ref 0.0 and worst_step = ref 1 and worst_node = ref 0 in
  for step = 1 to steps do
    let p, node = Opera.Yield.grid_failure_probability_gaussian response ~step ~budget in
    if p > !worst_p then begin
      worst_p := p;
      worst_step := step;
      worst_node := node
    end
  done;
  [
    ("budget_pct", num budget_pct);
    ("worst_fail_p", num !worst_p);
    ("worst_fail_step", num (float_of_int !worst_step));
    ("worst_fail_node", num (float_of_int !worst_node));
  ]

let galerkin_options (job : Job.t) reg ~probe ~inner ~warm_start ~precond =
  {
    Opera.Galerkin.default_options with
    Opera.Galerkin.solver = job.solver;
    probes = [| probe |];
    domains = inner;
    policy = job.policy;
    metrics = reg;
    warm_start;
    precond;
  }

(* Every Galerkin-group job is one library call: the group's shared
   artifacts (Direct factors and Ct, iterative DC mean block and Gt) go
   in as optional arguments, read-only. *)
let run_galerkin_job (ctx : galerkin_ctx) (job : Job.t) reg ~inner ~warm_start ~precond =
  let n = ctx.model.Opera.Stochastic_model.n in
  let probe = resolve_probe job ctx.gspec n in
  let vdd = ctx.gvdd in
  let model = scaled_model ctx.model job in
  let options = galerkin_options job reg ~probe ~inner ~warm_start ~precond in
  match job.analysis with
  | Job.Dc ->
      let coefs = Opera.Galerkin.solve_dc ~options ?factor:ctx.fdc ?mean:ctx.mean ?gt:ctx.gt model in
      (dc_record job ~vdd ~model ~probe coefs, None)
  | Job.Transient | Job.Yield _ ->
      let factors = Option.map (fun fdc -> (fdc, List.assoc job.h ctx.fmt)) ctx.fdc in
      let response, _stats =
        Opera.Galerkin.solve_transient ~options ?factors ?ct:ctx.ct model ~h:job.h ~steps:job.steps
      in
      let fields = transient_fields response ~vdd ~probe ~steps:job.steps ~n in
      let fields =
        match job.analysis with
        | Job.Yield { budget_pct } ->
            fields @ yield_fields response ~vdd ~steps:job.steps ~budget_pct
        | _ -> fields
      in
      (base_fields job ~probe fields, Some response)
  | Job.Special _ -> invalid_arg "Engine.run_galerkin_job: special job in a Galerkin group"

let run_special_job (ctx : special_ctx) (job : Job.t) reg ~inner =
  let lambda =
    match job.analysis with
    | Job.Special { lambda; _ } -> lambda
    | _ -> invalid_arg "Engine.run_special_job: not a special-case job"
  in
  let n = ctx.sc.Opera.Special_case.mna.Powergrid.Mna.n in
  let probe = resolve_probe job (Some ctx.sspec) n in
  let sc =
    {
      ctx.sc with
      Opera.Special_case.lambda;
      leaks =
        (if Util.Floats.equal_exact job.leak_scale 1.0 then ctx.sc.Opera.Special_case.leaks
         else
           Array.map
             (fun (node, region, i0) -> (node, region, i0 *. job.leak_scale))
             ctx.sc.Opera.Special_case.leaks);
    }
  in
  let fbe = List.assoc job.h ctx.sfbe in
  let response, _elapsed =
    Opera.Special_case.solve ~domains:inner ~metrics:reg ~factors:(ctx.sfdc, fbe) sc ~h:job.h
      ~steps:job.steps ~probes:[| probe |]
  in
  let vdd = ctx.sspec.Powergrid.Grid_spec.vdd in
  let pce = Opera.Response.pce_at response ~node:probe ~step:job.steps in
  let fields =
    transient_fields response ~vdd ~probe ~steps:job.steps ~n
    @ [
        ("regions", num (float_of_int ctx.sc.Opera.Special_case.regions));
        ("lambda", num lambda);
        ("basis_size", num (float_of_int (Polychaos.Basis.size ctx.sc.Opera.Special_case.basis)));
        ("final_skew", num (Polychaos.Pce.skewness pce));
      ]
  in
  (base_fields job ~probe fields, Some response)

(* The engine precomputes everything (candidates, seed) shapes — the
   point set and every factor — so only the convergence knobs of the
   job's [St] payload still matter here. *)
let st_options_of (job : Job.t) reg ~probe ~inner ~precond =
  let tol, max_refine, candidates, seed =
    match job.solver with
    | Opera.Galerkin.St { tol; max_refine; candidates; seed } -> (tol, max_refine, candidates, seed)
    | _ -> invalid_arg "Engine.run_st_job: not an st job"
  in
  {
    Opera.St_solver.candidates;
    seed;
    refine_tol = tol;
    refine_max = max_refine;
    ordering = Linalg.Ordering.Nested_dissection;
    precond;
    probes = [| probe |];
    domains = inner;
    metrics = reg;
  }

let run_st_job (ctx : st_ctx) (job : Job.t) reg ~inner ~precond =
  let model = scaled_model ctx.stmodel job in
  let n = model.Opera.Stochastic_model.n in
  let probe = resolve_probe job ctx.stspec n in
  let vdd = ctx.stvdd in
  let options = st_options_of job reg ~probe ~inner ~precond in
  match job.analysis with
  | Job.Dc ->
      let coefs, _stats = Opera.St_solver.solve_dc ~options ~points:ctx.stpoints ?f0:ctx.stf0 model in
      (dc_record job ~vdd ~model ~probe coefs, None)
  | Job.Transient | Job.Yield _ ->
      let fstep = List.assoc_opt job.h ctx.stfstep in
      let response, _stats =
        Opera.St_solver.solve_transient ~options ~points:ctx.stpoints ?f0:ctx.stf0 ?fstep model
          ~h:job.h ~steps:job.steps
      in
      let fields = transient_fields response ~vdd ~probe ~steps:job.steps ~n in
      let fields =
        match job.analysis with
        | Job.Yield { budget_pct } ->
            fields @ yield_fields response ~vdd ~steps:job.steps ~budget_pct
        | _ -> fields
      in
      (base_fields job ~probe fields, Some response)
  | Job.Special _ -> invalid_arg "Engine.run_st_job: special job in an st group"

let run_job ctx job reg ~inner ~warm_start ~precond =
  Util.Metrics.incr reg "engine.jobs";
  Util.Metrics.span reg "engine.job_s" (fun () ->
      match ctx with
      | Galerkin_ctx g -> run_galerkin_job g job reg ~inner ~warm_start ~precond
      | Special_ctx s -> run_special_job s job reg ~inner
      | St_ctx s -> run_st_job s job reg ~inner ~precond)

(* ---- batch execution ------------------------------------------------- *)

let shard_filter config jobs =
  match config.shard with
  | None -> jobs
  | Some (i, k) ->
      if k < 1 || i < 0 || i >= k then
        raise
          (Invalid_batch
             (Printf.sprintf "shard %d/%d is not a valid partition (need 0 <= i < k)" i k));
      let sel = ref [] in
      Array.iteri (fun idx job -> if shard_of idx ~shards:k = i then sel := job :: !sel) jobs;
      Array.of_list (List.rev !sel)

let run ?(config = default_config) ?emit jobs =
  let t0 = Util.Timer.start () in
  let metrics = config.metrics in
  if Array.length jobs = 0 then raise (Invalid_batch "empty batch");
  (* Shard membership is decided on batch-file positions, BEFORE resume
     or planning, so k cooperating processes partition the same job set
     no matter which of them already journaled what. *)
  let jobs = shard_filter config jobs in
  let njobs = Array.length jobs in
  let store = Store.create ~metrics ~dir:config.cache_dir () in
  let registry = Registry.create ~dir:config.cache_dir () in
  (* Resume replays journaled records without building anything: a
     replayed job needs no context, no factors, not even its group. *)
  let out : result option array = Array.make njobs None in
  let done_ = Array.make njobs false in
  if config.resume then
    Array.iteri
      (fun i job ->
        match Registry.lookup registry job with
        | Some record ->
            out.(i) <- Some { job; record; response = None };
            done_.(i) <- true
        | None -> ())
      jobs;
  let pending =
    Array.of_list
      (List.filter (fun i -> not done_.(i)) (List.init njobs (fun i -> i)))
  in
  let npending = Array.length pending in
  let groups = plan (Array.map (fun i -> jobs.(i)) pending) in
  let factorizations = ref 0 in
  let count () =
    incr factorizations;
    Util.Metrics.incr metrics "engine.factorizations"
  in
  let ctx_of = Array.make njobs None in
  Array.iter
    (fun members ->
      let rep = jobs.(pending.(members.(0))) in
      let ctx =
        Util.Metrics.span metrics "engine.group_setup_s" (fun () ->
            build_ctx store count ~metrics ~precond:config.precond rep
              (Array.map (fun i -> jobs.(pending.(i))) members))
      in
      Array.iter (fun i -> ctx_of.(pending.(i)) <- Some ctx) members)
    groups;
  (* Probe bounds need the built contexts (a netlist's node count is only
     known after parsing), but must be checked BEFORE the parallel fan-out
     so a bad spec surfaces as a normal usage error, not a backtrace out
     of a worker domain.  Replayed jobs were validated by the run that
     journaled them (an out-of-range probe never completes, hence never
     journals). *)
  Array.iter
    (fun i ->
      let job = jobs.(i) in
      match job.Job.probe with
      | None -> ()
      | Some p ->
          let n =
            match Option.get ctx_of.(i) with
            | Galerkin_ctx g -> g.model.Opera.Stochastic_model.n
            | Special_ctx s -> s.sc.Opera.Special_case.mna.Powergrid.Mna.n
            | St_ctx s -> s.stmodel.Opera.Stochastic_model.n
          in
          if p < 0 || p >= n then
            raise
              (Invalid_batch
                 (Printf.sprintf "job %s: probe %d out of range [0, %d)" job.Job.name p n)))
    pending;
  let jp = Int.max 1 (Int.min (Util.Parallel.resolve config.jobs_parallel) npending) in
  (* Jobs in flight own their domain: inner solver parallelism is forced
     sequential whenever the batch itself fans out, so the domain count
     stays bounded by [jobs_parallel]. *)
  let inner = if jp > 1 then 1 else config.domains in
  let regs = Array.init npending (fun _ -> Util.Metrics.create ()) in
  (* Streaming fan-out.  Workers claim pending jobs off an atomic
     counter; every completion journals its record, then publishes the
     result under [lock] and signals [cond].  Only the main domain
     emits: records leave in input order, each flushed as soon as it and
     every earlier-indexed job are done, so a killed run's JSONL is
     always an exact prefix of the uninterrupted stream.  A failing job
     parks its exception (lowest input index wins, matching the
     deterministic re-raise discipline of Util.Parallel.for_chunks) and
     later jobs still run; a failing emit callback stops further claims
     and re-raises after the in-flight jobs drain. *)
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let claim = Atomic.make 0 in
  let stop = Atomic.make false in
  let remaining = ref npending in
  let job_failure = ref None in
  let emit_failure = ref None in
  let work_one c =
    let i = pending.(c) in
    (match
       run_job (Option.get ctx_of.(i)) jobs.(i) regs.(c) ~inner ~warm_start:config.warm_start
         ~precond:config.precond
     with
    | record, response ->
        (* Journal-ahead: the record is on disk (atomically) before it
           can reach the stream, so --resume never misses an emitted
           record.  Registry serializes its own writes. *)
        Registry.record registry jobs.(i) record;
        Mutex.lock lock;
        out.(i) <- Some { job = jobs.(i); record; response };
        done_.(i) <- true
    | exception e ->
        Mutex.lock lock;
        (match !job_failure with
        | Some (j, _) when j <= i -> ()
        | _ -> job_failure := Some (i, e)));
    decr remaining;
    Condition.broadcast cond;
    Mutex.unlock lock
  in
  let rec worker_loop () =
    if not (Atomic.get stop) then begin
      let c = Atomic.fetch_and_add claim 1 in
      if c < npending then begin
        work_one c;
        worker_loop ()
      end
    end
  in
  let next_emit = ref 0 in
  let drain_ready () =
    match emit with
    | None -> ()
    | Some emit when !emit_failure = None ->
        let ready = ref [] in
        Mutex.lock lock;
        while !next_emit < njobs && done_.(!next_emit) do
          ready := Option.get out.(!next_emit) :: !ready;
          incr next_emit
        done;
        Mutex.unlock lock;
        (* The callback runs unlocked: it may flush to a pipe, block on a
           slow consumer, or raise — none of which may stall workers. *)
        List.iter
          (fun r ->
            if !emit_failure = None then
              match emit r with
              | () -> ()
              | exception e ->
                  emit_failure := Some e;
                  Atomic.set stop true)
          (List.rev !ready)
    | Some _ -> ()
  in
  let workers = Array.init (jp - 1) (fun _ -> Domain.spawn worker_loop) in
  let rec main_loop () =
    drain_ready ();
    if not (Atomic.get stop) then begin
      let c = Atomic.fetch_and_add claim 1 in
      if c < npending then begin
        work_one c;
        main_loop ()
      end
    end
  in
  main_loop ();
  (* Emit stragglers as their prefixes complete; on an emit failure the
     sink is dead, so just drain the in-flight jobs via the joins. *)
  Mutex.lock lock;
  while !remaining > 0 && !emit_failure = None do
    Condition.wait cond lock;
    Mutex.unlock lock;
    drain_ready ();
    Mutex.lock lock
  done;
  Mutex.unlock lock;
  Array.iter Domain.join workers;
  drain_ready ();
  Array.iter (fun reg -> Util.Metrics.merge_into reg ~into:metrics) regs;
  let rstats = Registry.stats registry in
  Util.Metrics.incr metrics ~by:rstats.Registry.replayed "registry.replays";
  Util.Metrics.incr metrics ~by:rstats.Registry.journaled "registry.writes";
  Util.Metrics.incr metrics ~by:rstats.Registry.corrupt "registry.corrupt";
  (match !job_failure with Some (_, e) -> raise e | None -> ());
  (match !emit_failure with Some e -> raise e | None -> ());
  let results = Array.map Option.get out in
  let st = Store.stats store in
  ( results,
    {
      jobs = njobs;
      groups = Array.length groups;
      factorizations = !factorizations;
      cache_hits = st.Store.hits;
      cache_misses = st.Store.misses;
      cache_corrupt = st.Store.corrupt;
      replayed = rstats.Registry.replayed;
      journaled = rstats.Registry.journaled;
      registry_corrupt = rstats.Registry.corrupt;
      elapsed_seconds = Util.Timer.elapsed_s t0;
    } )

let run_jsonl ?config out jobs =
  (* Stream: each record leaves the process the moment its prefix is
     complete, so a crash at job N loses nothing of jobs 0..N-1. *)
  let emit r =
    output_string out (Util.Json.render r.record);
    output_char out '\n';
    flush out
  in
  let _, summary = run ?config ~emit jobs in
  summary

let summary_line s =
  Printf.sprintf
    "batch: %d job(s) in %d group(s), %d factorization(s), cache %d hit(s) / %d miss(es)%s%s, %.2f s"
    s.jobs s.groups s.factorizations s.cache_hits s.cache_misses
    (if s.cache_corrupt > 0 then Printf.sprintf " (%d corrupt)" s.cache_corrupt else "")
    (if s.replayed > 0 then Printf.sprintf ", %d replayed" s.replayed else "")
    s.elapsed_seconds
