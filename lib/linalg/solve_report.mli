(** Health report of one linear solve, and per-run aggregation.

    {!Cg.solve_report} threads one of these out of every iterative solve
    so callers can {e check} convergence instead of silently accepting
    whatever [max_iter] produced — the spectral Galerkin transient is only
    as trustworthy as its worst inner solve.
    [Opera.Galerkin] aggregates reports over a transient run and applies
    a configurable convergence policy (fail / warn / fallback). *)

type t = {
  solver : string;  (** "cg", "direct", ... *)
  iterations : int;
  residual_norm : float;  (** final absolute residual 2-norm *)
  rhs_norm : float;  (** [||b||], the convergence reference *)
  rel_residual : float;  (** [residual_norm / rhs_norm]; 0 when [||b|| = 0] *)
  tol : float;  (** requested relative tolerance *)
  converged : bool;
  wall_seconds : float;
  residual_history : float array;
      (** most recent residual norms, oldest first — a bounded ring
          buffer, empty unless requested with [~history_cap] *)
}

val make :
  solver:string ->
  iterations:int ->
  residual_norm:float ->
  rhs_norm:float ->
  tol:float ->
  converged:bool ->
  wall_seconds:float ->
  ?residual_history:float array ->
  unit ->
  t
(** [rel_residual] is derived. *)

val summary : t -> string
(** One-line human-readable summary. *)

val to_json : t -> string

(** {2 Per-run aggregation} *)

type aggregate = {
  mutable solves : int;  (** iterative solves observed *)
  mutable iterations : int;  (** total inner iterations *)
  mutable unconverged : int;  (** solves that missed the tolerance *)
  mutable fallbacks : int;  (** unconverged solves repaired by a direct re-solve *)
  mutable worst_rel_residual : float;
  mutable wall_seconds : float;
}

val agg_create : unit -> aggregate

val agg_add : aggregate -> t -> unit

val agg_count_fallback : aggregate -> unit

val agg_healthy : aggregate -> bool
(** True when every unconverged solve was repaired by a fallback (or no
    solve missed the tolerance at all) — i.e. the run's final residuals
    all meet the requested tolerance. *)

val agg_summary : aggregate -> string

val agg_to_json : aggregate -> string
