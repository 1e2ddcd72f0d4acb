type report = {
  nodes : int;
  steps : int;
  avg_err_mean_pct : float;
  max_err_mean_pct : float;
  avg_err_std_pct : float;
  max_err_std_pct : float;
  three_sigma_pct_of_nominal_drop : float;
  mean_shift_pct_vdd : float;
  opera_seconds : float;
  mc_seconds : float;
  speedup : float;
}

let compare ~(response : Response.t) ~(mc : Monte_carlo.result) ~nominal ~vdd ~opera_seconds =
  if response.Response.n <> mc.Monte_carlo.n || response.Response.steps <> mc.Monte_carlo.steps
  then invalid_arg "Compare.compare: OPERA and MC shapes differ";
  let n = response.Response.n and steps = response.Response.steps in
  if Array.length nominal <> (steps + 1) * n then
    invalid_arg "Compare.compare: nominal trajectory shape mismatch";
  let sum_mean = ref 0.0 and max_mean = ref 0.0 and count_mean = ref 0 in
  let sum_std = ref 0.0 and max_std = ref 0.0 and count_std = ref 0 in
  let sum_ratio = ref 0.0 and count_ratio = ref 0 in
  let sum_shift = ref 0.0 and count_shift = ref 0 in
  let sigma_floor = 1e-7 *. vdd in
  let drop_floor = 0.005 *. vdd in
  for step = 1 to steps do
    let base = step * n in
    for node = 0 to n - 1 do
      let mu_op = response.Response.mean.(base + node) in
      let mu_mc = mc.Monte_carlo.mean.(base + node) in
      let sd_op = sqrt response.Response.variance.(base + node) in
      let sd_mc = sqrt mc.Monte_carlo.variance.(base + node) in
      let mu0 = nominal.(base + node) in
      (* Mean error relative to the MC mean voltage. *)
      if Float.abs mu_mc > 1e-12 then begin
        let e = 100.0 *. Float.abs (mu_op -. mu_mc) /. Float.abs mu_mc in
        sum_mean := !sum_mean +. e;
        if e > !max_mean then max_mean := e;
        incr count_mean
      end;
      (* Sigma error where MC resolves a sigma. *)
      if sd_mc > sigma_floor then begin
        let e = 100.0 *. Float.abs (sd_op -. sd_mc) /. sd_mc in
        sum_std := !sum_std +. e;
        if e > !max_std then max_std := e;
        incr count_std
      end;
      (* ±3sigma spread as % of the nominal drop, over meaningful drops. *)
      let drop0 = vdd -. mu0 in
      if drop0 > drop_floor then begin
        sum_ratio := !sum_ratio +. (100.0 *. 3.0 *. sd_op /. drop0);
        incr count_ratio
      end;
      sum_shift := !sum_shift +. (100.0 *. Float.abs (mu_op -. mu0) /. vdd);
      incr count_shift
    done
  done;
  let avg s c = if c = 0 then 0.0 else s /. float_of_int c in
  {
    nodes = n;
    steps;
    avg_err_mean_pct = avg !sum_mean !count_mean;
    max_err_mean_pct = !max_mean;
    avg_err_std_pct = avg !sum_std !count_std;
    max_err_std_pct = !max_std;
    three_sigma_pct_of_nominal_drop = avg !sum_ratio !count_ratio;
    mean_shift_pct_vdd = avg !sum_shift !count_shift;
    opera_seconds;
    mc_seconds = mc.Monte_carlo.elapsed_seconds;
    speedup = (if opera_seconds > 0.0 then mc.Monte_carlo.elapsed_seconds /. opera_seconds else 0.0);
  }

let header =
  [
    ("grid", Util.Table.Left);
    ("nodes", Util.Table.Right);
    ("avg%err mu", Util.Table.Right);
    ("max%err mu", Util.Table.Right);
    ("avg%err sigma", Util.Table.Right);
    ("max%err sigma", Util.Table.Right);
    ("+-3sigma (%mu0)", Util.Table.Right);
    ("mu-mu0 (%VDD)", Util.Table.Right);
    ("MC (s)", Util.Table.Right);
    ("OPERA (s)", Util.Table.Right);
    ("speedup", Util.Table.Right);
  ]

let row_strings label r =
  [
    label;
    string_of_int r.nodes;
    Printf.sprintf "%.4f" r.avg_err_mean_pct;
    Printf.sprintf "%.4f" r.max_err_mean_pct;
    Printf.sprintf "%.2f" r.avg_err_std_pct;
    Printf.sprintf "%.2f" r.max_err_std_pct;
    Printf.sprintf "+-%.0f" r.three_sigma_pct_of_nominal_drop;
    Printf.sprintf "%.4f" r.mean_shift_pct_vdd;
    Printf.sprintf "%.2f" r.mc_seconds;
    Printf.sprintf "%.2f" r.opera_seconds;
    Printf.sprintf "%.0fx" r.speedup;
  ]

type outcome = {
  model : Stochastic_model.t;
  response : Response.t;
  galerkin_stats : Galerkin.stats;
  mc : Monte_carlo.result;
  nominal : float array;
  report : report;
}

let nominal_transient (m : Stochastic_model.t) ~h ~steps =
  let n = m.Stochastic_model.n in
  let g = Powergrid.Mna.g_total m.Stochastic_model.mna in
  let c = Powergrid.Mna.c_total m.Stochastic_model.mna in
  let out = Array.make ((steps + 1) * n) 0.0 in
  let inject t u = Powergrid.Mna.inject_into m.Stochastic_model.mna t u in
  let fdc = Linalg.Sparse_cholesky.factor g in
  let u0 = Powergrid.Mna.inject m.Stochastic_model.mna 0.0 in
  let x0 = Linalg.Sparse_cholesky.solve fdc u0 in
  Array.blit x0 0 out 0 n;
  let cfg = Powergrid.Transient.default_config ~h ~steps in
  Powergrid.Transient.run cfg ~g ~c ~inject ~x0 ~on_step:(fun k _t x ->
      Array.blit x 0 out (k * n) n);
  out

let run ~order ~options ~(mc : Monte_carlo.config) spec vm =
  let probes =
    if Array.length mc.Monte_carlo.probes > 0 then mc.Monte_carlo.probes
    else [| Powergrid.Grid_gen.center_node spec |]
  in
  let mc = { mc with Monte_carlo.probes } in
  let h = mc.Monte_carlo.h and steps = mc.Monte_carlo.steps in
  let circuit = Powergrid.Grid_gen.generate spec in
  let model = Stochastic_model.build ~order vm ~vdd:spec.Powergrid.Grid_spec.vdd circuit in
  let t0 = Util.Timer.start () in
  let response, galerkin_stats =
    Galerkin.solve_transient ~options:{ options with Galerkin.probes } model ~h ~steps
  in
  let opera_seconds = Util.Timer.elapsed_s t0 in
  let mc = Monte_carlo.run model mc in
  let nominal = nominal_transient model ~h ~steps in
  let report =
    compare ~response ~mc ~nominal ~vdd:spec.Powergrid.Grid_spec.vdd ~opera_seconds
  in
  { model; response; galerkin_stats; mc; nominal; report }
