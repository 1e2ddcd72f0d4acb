type analysis =
  | Dc
  | Transient
  | Special of { regions : int; lambda : float }
  | Yield of { budget_pct : float }

type source = Generated of { nodes : int } | Netlist of string

type t = {
  name : string;
  source : source;
  analysis : analysis;
  order : int;
  h : float;
  steps : int;
  solver : Opera.Galerkin.solver;
  policy : Opera.Galerkin.policy;
  sigma_scale : float;
  drain_scale : float;
  leak_scale : float;
  probe : int option;
}

let analysis_name = function
  | Dc -> "dc"
  | Transient -> "transient"
  | Special _ -> "special"
  | Yield _ -> "yield"

let solver_of_string ?(st_candidates = 0) ?(st_seed = 1L) = function
  | "direct" -> Ok Opera.Galerkin.Direct
  | "pcg" -> Ok (Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 500 })
  | "matrix-free" -> Ok (Opera.Galerkin.Matrix_free_pcg { tol = 1e-10; max_iter = 500 })
  | "st" -> (
      match Opera.Galerkin.default_st with
      | Opera.Galerkin.St k ->
          Ok (Opera.Galerkin.St { k with candidates = st_candidates; seed = st_seed })
      | _ -> assert false)
  | s -> Error (Printf.sprintf "unknown solver %S (direct, pcg, matrix-free, st)" s)

let solver_name = function
  | Opera.Galerkin.Direct -> "direct"
  | Opera.Galerkin.Mean_pcg _ -> "pcg"
  | Opera.Galerkin.Matrix_free_pcg _ -> "matrix-free"
  | Opera.Galerkin.St _ -> "st"

let policy_of_string = function
  | "fail" -> Ok Opera.Galerkin.Fail
  | "warn" -> Ok Opera.Galerkin.Warn
  | "fallback" -> Ok Opera.Galerkin.Fallback
  | s -> Error (Printf.sprintf "unknown solver policy %S (fail, warn, fallback)" s)

let policy_name = function
  | Opera.Galerkin.Fail -> "fail"
  | Opera.Galerkin.Warn -> "warn"
  | Opera.Galerkin.Fallback -> "fallback"

(* ---- JSON spec parsing ----------------------------------------------

   A job is one JSON object; a batch is {"jobs": [...]} with an optional
   {"defaults": {...}} object whose fields apply wherever a job omits
   them.  Unknown keys are an error — a typo in a field name must not
   silently fall back to a default. *)

let known_keys =
  [
    "name"; "analysis"; "nodes"; "netlist"; "order"; "steps"; "step_ps"; "solver"; "policy";
    "sigma_scale"; "drain_scale"; "leak_scale"; "regions"; "lambda"; "budget_pct"; "probe";
    "st_candidates"; "st_seed";
  ]

let ( let* ) = Result.bind

let field defaults job key =
  match Util.Json.member key job with
  | Some v -> Some v
  | None -> Util.Json.member key defaults

let typed ~what ~conv ~default defaults job key =
  match field defaults job key with
  | None -> Ok default
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S must be %s" key what))

let float_field = typed ~what:"a number" ~conv:Util.Json.to_float

let int_field = typed ~what:"an integer" ~conv:Util.Json.to_int

let string_field = typed ~what:"a string" ~conv:Util.Json.to_string

let check_keys obj =
  List.fold_left
    (fun acc key ->
      let* () = acc in
      if List.mem key known_keys then Ok ()
      else Error (Printf.sprintf "unknown job field %S" key))
    (Ok ()) (Util.Json.keys obj)

let positive name v = if v > 0.0 then Ok v else Error (Printf.sprintf "field %S must be > 0" name)

let positive_int name v = if v > 0 then Ok v else Error (Printf.sprintf "field %S must be > 0" name)

(* Near-square tiling of a special-case region count: rx = round(sqrt
   regions), ry = regions / rx.  The engine builds the grid with exactly
   this split, so counts where rx * ry <> regions (5, 7, 8, ...) cannot
   be honored; [of_json] rejects them instead of silently running with a
   different region count (which would also desynchronize the operator
   signature from the grid actually built). *)
let region_split regions =
  let side = int_of_float (Float.round (sqrt (float_of_int regions))) in
  let rx = Int.max 1 side in
  (rx, Int.max 1 (regions / rx))

let tileable regions =
  let rx, ry = region_split regions in
  rx * ry = regions

let check_regions regions =
  if regions <= 0 then positive_int "regions" regions
  else if tileable regions then Ok regions
  else begin
    let below = ref (regions - 1) in
    while not (tileable !below) do decr below done;
    let above = ref (regions + 1) in
    while not (tileable !above) do incr above done;
    Error
      (Printf.sprintf
         "field \"regions\" must tile a near-square rx*ry grid; %d does not (nearest are %d and %d)"
         regions !below !above)
  end

let of_json ?(defaults = Util.Json.Obj []) ?(name = "job") json =
  match json with
  | Util.Json.Obj _ ->
      let* () = check_keys json in
      let* name = string_field ~default:name defaults json "name" in
      let* kind = string_field ~default:"transient" defaults json "analysis" in
      let* nodes = int_field ~default:240 defaults json "nodes" in
      let* nodes = positive_int "nodes" nodes in
      let* netlist = string_field ~default:"" defaults json "netlist" in
      let source = if netlist = "" then Generated { nodes } else Netlist netlist in
      let* order = int_field ~default:2 defaults json "order" in
      let* order = positive_int "order" order in
      let* steps = int_field ~default:8 defaults json "steps" in
      let* steps = positive_int "steps" steps in
      let* step_ps = float_field ~default:125.0 defaults json "step_ps" in
      let* step_ps = positive "step_ps" step_ps in
      let* solver = string_field ~default:"direct" defaults json "solver" in
      let* st_candidates = int_field ~default:0 defaults json "st_candidates" in
      let* st_candidates =
        if st_candidates >= 0 then Ok st_candidates
        else Error "field \"st_candidates\" must be >= 0"
      in
      let* st_seed = int_field ~default:1 defaults json "st_seed" in
      let* solver = solver_of_string ~st_candidates ~st_seed:(Int64.of_int st_seed) solver in
      let* policy = string_field ~default:"warn" defaults json "policy" in
      let* policy = policy_of_string policy in
      let* sigma_scale = float_field ~default:1.0 defaults json "sigma_scale" in
      let* drain_scale = float_field ~default:1.0 defaults json "drain_scale" in
      let* leak_scale = float_field ~default:1.0 defaults json "leak_scale" in
      let* regions = int_field ~default:4 defaults json "regions" in
      let* regions = positive_int "regions" regions in
      let* lambda = float_field ~default:0.5 defaults json "lambda" in
      let* budget_pct = float_field ~default:10.0 defaults json "budget_pct" in
      let* probe = int_field ~default:(-1) defaults json "probe" in
      let probe = if probe >= 0 then Some probe else None in
      let* analysis =
        match kind with
        | "dc" -> Ok Dc
        | "transient" -> Ok Transient
        | "special" ->
            if netlist <> "" then
              Error "special-case jobs need a generated grid (region geometry unknown for netlists)"
            else
              let* regions = check_regions regions in
              Ok (Special { regions; lambda })
        | "yield" -> Ok (Yield { budget_pct })
        | s -> Error (Printf.sprintf "unknown analysis %S (dc, transient, special, yield)" s)
      in
      Ok
        {
          name;
          source;
          analysis;
          order;
          h = step_ps *. 1e-12;
          steps;
          solver;
          policy;
          sigma_scale;
          drain_scale;
          leak_scale;
          probe;
        }
  | _ -> Error "job spec must be a JSON object"

let batch_of_json json =
  let defaults =
    match Util.Json.member "defaults" json with
    | Some (Util.Json.Obj _ as d) -> Ok d
    | Some _ -> Error "\"defaults\" must be an object"
    | None -> Ok (Util.Json.Obj [])
  in
  let* defaults in
  let* () =
    match json with
    | Util.Json.Obj fields ->
        List.fold_left
          (fun acc (key, _) ->
            let* () = acc in
            if key = "jobs" || key = "defaults" then Ok ()
            else Error (Printf.sprintf "unknown batch field %S" key))
          (Ok ()) fields
    | _ -> Error "batch spec must be a JSON object with a \"jobs\" array"
  in
  match Util.Json.member "jobs" json with
  | Some (Util.Json.List jobs) ->
      let* parsed =
        List.fold_left
          (fun acc (i, j) ->
            let* rev = acc in
            match of_json ~defaults ~name:(Printf.sprintf "job%d" i) j with
            | Ok job -> Ok (job :: rev)
            | Error e -> Error (Printf.sprintf "job %d: %s" i e))
          (Ok [])
          (List.mapi (fun i j -> (i, j)) jobs)
      in
      if parsed = [] then Error "batch spec has no jobs"
      else
        (* Names key the JSONL records downstream consumers join on —
           a collision makes two records indistinguishable. *)
        let jobs = Array.of_list (List.rev parsed) in
        let seen = Hashtbl.create (Array.length jobs) in
        let* () =
          Array.fold_left
            (fun acc job ->
              let* () = acc in
              if Hashtbl.mem seen job.name then
                Error (Printf.sprintf "duplicate job name %S (job names must be unique)" job.name)
              else begin
                Hashtbl.add seen job.name ();
                Ok ()
              end)
            (Ok ()) jobs
        in
        Ok jobs
  | Some _ -> Error "\"jobs\" must be an array"
  | None -> Error "batch spec must carry a \"jobs\" array"

let batch_of_file path =
  match Util.Json.parse_file path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok json -> batch_of_json json

(* ---- operator signature ---------------------------------------------

   Jobs sharing a signature share their deterministic operator: same
   grid, same variation structure, same expansion order, same solver
   route.  The canonical bytes deliberately EXCLUDE the excitation-only
   knobs (drain_scale, leak_scale, lambda), the timestep (stepping
   factors are keyed per-h downstream), the step count, the probe and
   the convergence policy — none of them change the matrices, so jobs
   differing only there still share one factorization. *)

(* A netlist-sourced operator is shaped by the file's CONTENTS, not its
   name: editing a netlist in place must change the signature, or a warm
   --cache-dir run would silently reuse orderings and factors of the old
   circuit — breaking the store's contract that a stale cache can only
   cost time, never correctness.  An unreadable file digests to a fixed
   marker; the engine then fails with a proper parse error when it
   actually opens the file. *)
let netlist_digest path =
  match Digest.file path with
  | d -> Digest.to_hex d
  | exception Sys_error _ -> "<unreadable>"

let operator_bytes job =
  let e = Util.Codec.encoder () in
  (match job.analysis with
  | Dc | Transient | Yield _ ->
      Util.Codec.write_string e "galerkin";
      Util.Codec.write_float e job.sigma_scale
  | Special { regions; lambda = _ } ->
      Util.Codec.write_string e "special";
      Util.Codec.write_int e regions);
  (match job.source with
  | Generated { nodes } ->
      Util.Codec.write_string e "generated";
      Util.Codec.write_int e nodes
  | Netlist path ->
      Util.Codec.write_string e "netlist";
      Util.Codec.write_string e path;
      Util.Codec.write_string e (netlist_digest path));
  Util.Codec.write_int e job.order;
  Util.Codec.write_string e (solver_name job.solver);
  (* The st testing points (hence every per-point factor) are a
     deterministic function of (basis, candidates, seed): the knobs
     must invalidate cached point factors, while tol/max_refine are
     convergence-only and stay out — like pcg's tol/max_iter. *)
  (match job.solver with
  | Opera.Galerkin.St { candidates; seed; _ } ->
      Util.Codec.write_int e candidates;
      Util.Codec.write_i64 e seed
  | _ -> ());
  Util.Codec.contents e

let signature job = Digest.to_hex (Digest.string (operator_bytes job))

(* ---- result signature ------------------------------------------------

   The registry journals completed RECORDS, so its key must pin down
   everything that can change a record: the operator bytes plus exactly
   the knobs [operator_bytes] excludes because they don't reshape the
   matrices — excitation scales, timestep, step count, probe, analysis
   payload (lambda, budget), policy and convergence tolerances.  Two
   jobs with equal [result_bytes] produce bitwise-equal records, so a
   journaled record can be replayed without re-running the solve. *)

let result_bytes job =
  let e = Util.Codec.encoder () in
  Util.Codec.write_string e (operator_bytes job);
  Util.Codec.write_string e job.name;
  Util.Codec.write_string e (analysis_name job.analysis);
  (match job.analysis with
  | Dc | Transient -> ()
  | Special { regions = _; lambda } ->
      (* regions already live in the operator bytes *)
      Util.Codec.write_float e lambda
  | Yield { budget_pct } -> Util.Codec.write_float e budget_pct);
  Util.Codec.write_float e job.h;
  Util.Codec.write_int e job.steps;
  (* Convergence knobs can change how far an iterative solve runs, hence
     the digits of the record; [operator_bytes] deliberately leaves them
     out (they never invalidate a factorization). *)
  (match job.solver with
  | Opera.Galerkin.Direct -> ()
  | Opera.Galerkin.Mean_pcg { tol; max_iter } | Opera.Galerkin.Matrix_free_pcg { tol; max_iter }
    ->
      Util.Codec.write_float e tol;
      Util.Codec.write_int e max_iter
  | Opera.Galerkin.St { tol; max_refine; candidates = _; seed = _ } ->
      Util.Codec.write_float e tol;
      Util.Codec.write_int e max_refine);
  Util.Codec.write_string e (policy_name job.policy);
  Util.Codec.write_float e job.drain_scale;
  Util.Codec.write_float e job.leak_scale;
  (match job.probe with
  | None -> Util.Codec.write_bool e false
  | Some p ->
      Util.Codec.write_bool e true;
      Util.Codec.write_int e p);
  Util.Codec.contents e

let result_signature job = Digest.to_hex (Digest.string (result_bytes job))
