type t = {
  solver : string;
  iterations : int;
  residual_norm : float;
  rhs_norm : float;
  rel_residual : float;
  tol : float;
  converged : bool;
  wall_seconds : float;
  residual_history : float array;
}

let rel_of ~residual_norm ~rhs_norm = if rhs_norm > 0.0 then residual_norm /. rhs_norm else 0.0

let make ~solver ~iterations ~residual_norm ~rhs_norm ~tol ~converged ~wall_seconds
    ?(residual_history = [||]) () =
  {
    solver;
    iterations;
    residual_norm;
    rhs_norm;
    rel_residual = rel_of ~residual_norm ~rhs_norm;
    tol;
    converged;
    wall_seconds;
    residual_history;
  }

let summary r =
  Printf.sprintf "%s: %s after %d iterations, rel residual %.3e (tol %.1e)" r.solver
    (if r.converged then "converged" else "NOT converged")
    r.iterations r.rel_residual r.tol

(* ---- aggregation over a run ---------------------------------------- *)

type aggregate = {
  mutable solves : int;
  mutable iterations : int;
  mutable unconverged : int;
  mutable fallbacks : int;
  mutable worst_rel_residual : float;
  mutable wall_seconds : float;
}

let agg_create () =
  {
    solves = 0;
    iterations = 0;
    unconverged = 0;
    fallbacks = 0;
    worst_rel_residual = 0.0;
    wall_seconds = 0.0;
  }

let agg_add a (r : t) =
  a.solves <- a.solves + 1;
  a.iterations <- a.iterations + r.iterations;
  if not r.converged then a.unconverged <- a.unconverged + 1;
  if r.rel_residual > a.worst_rel_residual then a.worst_rel_residual <- r.rel_residual;
  a.wall_seconds <- a.wall_seconds +. r.wall_seconds

let agg_count_fallback a = a.fallbacks <- a.fallbacks + 1

let agg_healthy a = a.unconverged <= a.fallbacks

let agg_summary a =
  Printf.sprintf
    "%d iterative solves, %d iterations, %d unconverged, %d fallbacks, worst rel residual %.3e, \
     %.3f s"
    a.solves a.iterations a.unconverged a.fallbacks a.worst_rel_residual a.wall_seconds
