(** Declarative batch-job specifications.

    A job names one stochastic analysis: a grid (generated spec or
    netlist path), a variation model scaling, excitation deltas and an
    analysis kind.  Jobs are parsed from JSON ({!batch_of_json}) and
    grouped by {!signature} — the canonical hash of everything that
    shapes the deterministic operator — so the engine factors each
    operator exactly once per batch. *)

type analysis =
  | Dc  (** stochastic DC solve of the augmented system *)
  | Transient  (** backward-Euler transient of the augmented system *)
  | Special of { regions : int; lambda : float }
      (** Sec. 5.1 decoupled special case: deterministic grid, lognormal
          leakage per chip region *)
  | Yield of { budget_pct : float }
      (** transient plus a worst-step yield bound against a drop budget
          given as a percentage of VDD *)

type source =
  | Generated of { nodes : int }  (** synthetic grid scaled to ~[nodes] *)
  | Netlist of string  (** SPICE-subset netlist path *)

type t = {
  name : string;
  source : source;
  analysis : analysis;
  order : int;  (** chaos expansion order *)
  h : float;  (** timestep, seconds *)
  steps : int;
  solver : Opera.Galerkin.solver;
  policy : Opera.Galerkin.policy;
  sigma_scale : float;
      (** multiplies every sigma of the paper-default variation model —
          part of the operator signature *)
  drain_scale : float;
      (** scales the drain-current excitation only; never invalidates a
          factorization *)
  leak_scale : float;  (** scales the special case's nominal leak currents *)
  probe : int option;  (** probed node; default = grid center *)
}

val analysis_name : analysis -> string

val solver_of_string :
  ?st_candidates:int -> ?st_seed:int64 -> string -> (Opera.Galerkin.solver, string) result
(** ["direct"], ["pcg"], ["matrix-free"], ["st"] — the CLI vocabulary.
    Any other string is an [Error] naming the vocabulary, which the
    batch parser surfaces under the exit-2 usage discipline.  The
    [st_*] knobs land in the [St] payload (candidate-pool bound and
    point-selection seed; defaults 0 = tensor grid, seed 1) and are
    ignored by the other solvers. *)

val solver_name : Opera.Galerkin.solver -> string

val policy_of_string : string -> (Opera.Galerkin.policy, string) result
(** ["fail"], ["warn"], ["fallback"]. *)

val policy_name : Opera.Galerkin.policy -> string

val region_split : int -> int * int
(** [(rx, ry)] near-square tiling of a special-case region count:
    [rx = round(sqrt regions)], [ry = regions / rx].  The engine builds
    its grid with exactly this split; {!of_json} only accepts region
    counts where [rx * ry = regions], so parsed jobs always run with the
    region count they asked for. *)

val check_regions : int -> (int, string) result
(** [Ok regions] when the count is positive and {!region_split} tiles it
    exactly; otherwise the error message naming the field (and, for a
    non-tileable count, the nearest tileable ones).  {!of_json} and
    [opera special --regions] both validate through it. *)

val of_json : ?defaults:Util.Json.t -> ?name:string -> Util.Json.t -> (t, string) result
(** Parse one job object.  Missing fields fall back to [defaults] (an
    object) and then to built-in defaults; unknown fields are an error,
    as is a special-case region count {!region_split} cannot honor, an
    unknown ["solver"]/["policy"] string, or a negative
    ["st_candidates"].  ["st_candidates"]/["st_seed"] configure the
    stochastic-testing point selection of [solver = "st"]. *)

val batch_of_json : Util.Json.t -> (t array, string) result
(** Parse [{"jobs": [...], "defaults": {...}?}].  Jobs keep their array
    order; a nameless job [i] is named ["job<i>"]; duplicate names are
    an error (records are keyed by name downstream). *)

val batch_of_file : string -> (t array, string) result

val operator_bytes : t -> string
(** Canonical {!Util.Codec} bytes of the job's operator-shaping fields
    (analysis family, source, variation scaling, order, solver route).
    For a netlist source this includes a digest of the file's {e
    contents}, so editing a netlist in place invalidates every cached
    artifact derived from it.  The [St] candidate/seed knobs are
    included (they determine the testing points, hence every cached
    per-point factor); excitation deltas, timestep, step count, probe,
    policy and convergence tolerances are excluded — see DESIGN.md §9
    for the invalidation rules. *)

val signature : t -> string
(** Hex digest of {!operator_bytes}; equal signatures share factors. *)

val result_bytes : t -> string
(** Canonical bytes of everything that shapes the job's {e record}:
    {!operator_bytes} plus the fields it deliberately excludes — name,
    analysis payload (lambda, budget), excitation scales, timestep,
    step count, probe, convergence policy and tolerances.  Jobs with
    equal [result_bytes] produce bitwise-equal JSONL records, which is
    the replay contract of the results {!Registry}. *)

val result_signature : t -> string
(** Hex digest of {!result_bytes}; the journal key of [--resume]. *)
