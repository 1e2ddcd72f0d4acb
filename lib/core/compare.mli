(** OPERA vs Monte-Carlo error metrics — the columns of the paper's
    Table 1. *)

type report = {
  nodes : int;
  steps : int;
  avg_err_mean_pct : float;
      (** average % error of the mean voltage (relative to MC mean),
          across all nodes and timesteps *)
  max_err_mean_pct : float;
  avg_err_std_pct : float;
      (** average % error of the voltage standard deviation (relative to
          MC sigma, where sigma is resolvable) *)
  max_err_std_pct : float;
  three_sigma_pct_of_nominal_drop : float;
      (** average of [3 sigma / nominal drop * 100] over meaningful drops —
          the paper's "±35%" column *)
  mean_shift_pct_vdd : float;
      (** average |mu - mu0| as % of VDD — the paper's "mu ≈ mu0" claim *)
  opera_seconds : float;
  mc_seconds : float;
  speedup : float;
}

val compare :
  response:Response.t ->
  mc:Monte_carlo.result ->
  nominal:float array ->
  vdd:float ->
  opera_seconds:float ->
  report
(** [nominal] is the deterministic (variation-free) voltage trajectory in
    the same [(steps+1) * n] layout. *)

val row_strings : string -> report -> string list
(** Render as a Table-1-style row: label, nodes, the four error columns,
    ±3sigma column, times and speedup. *)

val header : (string * Util.Table.align) list

(** {1 One Table-1 row, end to end} *)

type outcome = {
  model : Stochastic_model.t;
  response : Response.t;
  galerkin_stats : Galerkin.stats;
  mc : Monte_carlo.result;
  nominal : float array;  (** deterministic trajectory, [(steps+1) * n] *)
  report : report;
}

val nominal_transient : Stochastic_model.t -> h:float -> steps:int -> float array
(** Variation-free transient of the grid (the paper's [mu0]), in the
    [(steps+1) * n] layout. *)

val run :
  order:int ->
  options:Galerkin.options ->
  mc:Monte_carlo.config ->
  Powergrid.Grid_spec.t ->
  Varmodel.t ->
  outcome
(** The paper's Table-1 pipeline for one grid: generate it, expand it to
    chaos [order], run the Galerkin transient under [options] (timed into
    [report.opera_seconds]), the Monte-Carlo baseline [mc] and the nominal
    reference, and {!compare} them.  [mc] fixes the time axis and the
    probes of both solves: its [h] and [steps], and its [probes] — or the
    grid's center node when those are empty — replace [options.probes]. *)
