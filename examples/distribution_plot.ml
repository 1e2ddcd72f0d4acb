(* Figures 1 & 2 of the paper, interactively: the voltage-drop distribution
   at a chosen node, Monte Carlo vs the sampled OPERA expansion.

   Run with:  dune exec examples/distribution_plot.exe [-- <nodes> <mc-samples>] *)

let () =
  let target = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2000 in
  let mc_samples = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 400 in
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default target in
  let vdd = spec.Powergrid.Grid_spec.vdd in
  let probe = Powergrid.Grid_gen.center_node spec in
  let options =
    { Opera.Galerkin.default_options with
      Opera.Galerkin.solver = Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 500 } }
  in
  let mc =
    { (Opera.Monte_carlo.default_config ~h:0.125e-9 ~steps:16) with
      Opera.Monte_carlo.samples = mc_samples; probes = [| probe |] }
  in
  Printf.printf "running OPERA and %d-sample Monte Carlo on %s...\n%!" mc_samples
    (Powergrid.Grid_spec.describe spec);
  let outcome = Opera.Compare.run ~order:2 ~options ~mc spec Opera.Varmodel.paper_default in
  let response = outcome.Opera.Compare.response in
  let mc = outcome.Opera.Compare.mc in

  (* Step with the deepest mean drop at the probe. *)
  let step =
    let best = ref 1 and deepest = ref infinity in
    for s = 1 to response.Opera.Response.steps do
      let v = Opera.Response.mean_at response ~step:s ~node:probe in
      if v < !deepest then begin
        deepest := v;
        best := s
      end
    done;
    !best
  in
  let drop_pct v = 100.0 *. (vdd -. v) /. vdd in
  let mc_drops = Array.map drop_pct mc.Opera.Monte_carlo.probe_values.(0).(step) in
  let rng = Prob.Rng.create ~seed:99L () in
  let opera_drops =
    Array.init (8 * mc_samples) (fun _ ->
        drop_pct (Opera.Response.sample_voltage response ~node:probe ~step rng))
  in
  let lo = Float.min (Linalg.Vec.min mc_drops) (Linalg.Vec.min opera_drops) in
  let hi = Float.max (Linalg.Vec.max mc_drops) (Linalg.Vec.max opera_drops) +. 1e-9 in
  let build xs =
    let h = Prob.Histogram.create ~lo ~hi ~bins:14 in
    Prob.Histogram.add_all h xs;
    h
  in
  Printf.printf "\nvoltage drop at node %d, t = %.3g ns, as %% of VDD:\n\n" probe
    (float_of_int step *. 0.125);
  print_string
    (Prob.Histogram.render_pair ~a:(build mc_drops) ~b:(build opera_drops) ~a_label:"MC"
       ~b_label:"OPERA" ());
  Printf.printf "\nKS p-value (same distribution?): %.4f\n"
    (Prob.Ks.p_value mc_drops opera_drops);
  Printf.printf "OPERA sampling is essentially free: each realization is one\n";
  Printf.printf "polynomial evaluation instead of one transient simulation.\n"
