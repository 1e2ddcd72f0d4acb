(* opera compare — OPERA vs Monte Carlo on one grid (a Table-1 row). *)

let run argv =
  let nodes = ref 2000
  and order = ref 2
  and steps = ref 24
  and step_ps = ref 125.0
  and samples = ref 300
  and seed = ref 7
  and solver = ref (Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 500 })
  and st_candidates = ref 0
  and st_seed = ref 1
  and domains = ref 0
  and policy = ref Opera.Galerkin.Warn
  and warm_start = ref true
  and metrics_out = ref None
  and log_level = ref Util.Log.Warn in
  let args =
    [
      Cli_common.nodes_arg nodes;
      Cli_common.order_arg order;
      Cli_common.steps_arg steps;
      Cli_common.step_ps_arg step_ps;
      Cli_common.samples_arg samples;
      Cli_common.seed_arg seed;
      Cli_common.solver_arg solver;
      Cli_common.st_candidates_arg st_candidates;
      Cli_common.st_seed_arg st_seed;
      Cli_common.domains_arg domains;
      Cli_common.policy_arg policy;
      Cli_common.warm_start_arg warm_start;
      Cli_common.metrics_out_arg metrics_out;
      Cli_common.log_level_arg log_level;
    ]
  in
  Cli_common.dispatch ~prog:"opera compare"
    ~summary:"OPERA vs Monte Carlo on one grid (a Table-1 row)." ~args ~argv
  @@ fun _ ->
  Cli_common.with_health ~log_level:!log_level ~metrics_out:!metrics_out @@ fun () ->
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default !nodes in
  let options =
    { Opera.Galerkin.default_options with
      Opera.Galerkin.solver =
        Cli_common.apply_st_knobs !solver ~candidates:!st_candidates ~seed:!st_seed;
      domains = !domains;
      policy = !policy;
      warm_start = !warm_start }
  in
  let mc =
    { (Opera.Monte_carlo.default_config ~h:(!step_ps *. 1e-12) ~steps:!steps) with
      Opera.Monte_carlo.samples = !samples;
      seed = Int64.of_int !seed }
  in
  let outcome = Opera.Compare.run ~order:!order ~options ~mc spec Opera.Varmodel.paper_default in
  let label = Printf.sprintf "%dn" (Powergrid.Grid_spec.node_count spec) in
  let table = Util.Table.create Opera.Compare.header in
  Util.Table.add_row table (Opera.Compare.row_strings label outcome.Opera.Compare.report);
  print_string (Util.Table.render table);
  Cli_common.print_health outcome.Opera.Compare.galerkin_stats
