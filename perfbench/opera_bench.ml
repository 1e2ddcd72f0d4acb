(* OPERA benchmark: job specification in, JSONL record out.

     opera_bench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR [--smoke]

   Workloads (see perfbench/README.md for why each exists):

     transient-20k-cold  cold batch, ~20k nodes, order 2, 20 steps, two st
                         corners and one matrix-free corner, domains=2
     dc-amg-100k-warm    DC batch, ~1e5 nodes, mean-block PCG under AMG,
                         three drain corners, on a store prewarmed in set-up
     serve-mixed-2k      in-process `opera serve`, two closed-loop clients
                         alternating fresh 4-job requests and replays

   All inputs are generated from --seed; the program sees only the job
   and request documents.  With --trace 0 the run prints the end-to-end
   metrics, with --trace 1 the per-layer metrics of a separate traced
   pass.  The last line of standard output is the result object. *)

module Json = Util.Json
module Job = Scenario.Job
module Engine = Scenario.Engine

let check = Ledger.check

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  work_dir : string;
  smoke : bool;
}

let usage () =
  Ledger.die
    "usage: opera_bench --workload transient-20k-cold|dc-amg-100k-warm|serve-mixed-2k --seed N \
     --seconds S --trace 0|1 --work-dir DIR [--smoke]"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let work_dir = ref "" and smoke = ref false in
  let int_arg name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> Ledger.die "%s: %S is not an integer" name v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_arg "--seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Some (int_arg "--seconds" v);
        go rest
    | "--trace" :: v :: rest ->
        trace := Some (int_arg "--trace" v);
        go rest
    | "--work-dir" :: v :: rest ->
        work_dir := v;
        go rest
    | "--smoke" :: rest ->
        smoke := true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some (0 | 1 as trace) when !work_dir <> "" && seconds > 0 ->
      {
        workload = !workload;
        seed;
        seconds = float_of_int seconds;
        trace = trace = 1;
        work_dir = !work_dir;
        smoke = !smoke;
      }
  | _ -> usage ()

(* ---- files ------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path

(* ---- generated documents ---------------------------------------------- *)

let str s = Json.Str s

let num = Ledger.num

let int n = num (float_of_int n)

(* A drain or leak scale in [0.8, 1.2), rounded to four decimals so the
   documents stay readable. *)
let draw_scale rng = Float.round ((0.8 +. Random.State.float rng 0.4) *. 1e4) /. 1e4

(* [k] distinct scales. *)
let draw_scales rng k =
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let s = draw_scale rng in
      go (if List.mem s acc then acc else s :: acc)
  in
  go []

let batch_doc ~defaults jobs =
  Json.render (Json.Obj [ ("defaults", Json.Obj defaults); ("jobs", Json.List jobs) ])

let parse_batch doc =
  match Json.parse doc with
  | Error e -> failwith ("generated document does not parse: " ^ e)
  | Ok json -> (
      match Job.batch_of_json json with
      | Ok jobs -> jobs
      | Error e -> failwith ("generated batch rejected: " ^ e))

(* ---- one batch through the engine ------------------------------------ *)

type batch = {
  seconds : float;
  first_record : float;
  lines : string list;
  responses : Opera.Response.t option list;  (* in record order, when kept *)
}

(* Job document in, JSONL stream out: the document is parsed inside the
   timed region and every record is written and flushed to [stream] as
   the engine emits it.  Responses are large (a transient keeps every
   node's moments), so they are kept only on request. *)
let run_batch ?(keep_responses = false) ~config ~stream doc =
  let oc = open_out stream in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t = Util.Timer.start () in
      let first = ref nan and lines = ref [] and responses = ref [] in
      let emit (r : Engine.result) =
        let line = Json.render r.Engine.record in
        output_string oc line;
        output_char oc '\n';
        flush oc;
        if Float.is_nan !first then first := Ledger.elapsed_since t;
        lines := line :: !lines;
        if keep_responses then responses := r.Engine.response :: !responses
      in
      let _, _summary = Engine.run ~config ~emit (parse_batch doc) in
      {
        seconds = Ledger.elapsed_since t;
        first_record = !first;
        lines = List.rev !lines;
        responses = List.rev !responses;
      })

let engine_config ~cache_dir ~domains ~precond ~metrics =
  {
    Engine.default_config with
    Engine.cache_dir = Some cache_dir;
    jobs_parallel = 1;
    domains;
    metrics;
    precond;
  }

let same_lines ~what reference lines =
  check
    (List.length reference = List.length lines)
    "%s: %d records, expected %d" what (List.length lines) (List.length reference);
  List.iteri
    (fun i line ->
      match List.nth_opt reference i with
      | Some r -> check (String.equal r line) "%s: record %d differs from the reference" what i
      | None -> ())
    lines

let field_of line name =
  match Json.parse line with
  | Ok j -> Option.bind (Json.member name j) Json.to_float
  | Error _ -> None

(* ---- measurements every workload reports ------------------------------ *)

(* End-to-end figures of one workload run. *)
type e2e = {
  jobs : int;
  busy_s : float;  (* timed seconds the jobs took *)
  first_records : float list;
  requests : float list;  (* request latencies; a batch is one request *)
  setups : float list;
}

(* Per-layer figures, filled in by the traced run. *)
let layer : (string, float) Hashtbl.t = Hashtbl.create 64

let set name v = Hashtbl.replace layer name v

(* Every metric the program itself recorded during the timed loop
   (its Util.Metrics registry), kept for the trace file. *)
let program_metrics = ref Json.Null

let keep_program_metrics m =
  program_metrics := Result.value ~default:Json.Null (Json.parse (Util.Metrics.to_json m))

(* Name, unit: the per-layer metrics of BENCHMARK.json, in its order. *)
let per_layer =
  [
    ("service.replay_share", "ratio"); ("service.rejects", "count"); ("protocol.parse_s", "s");
    ("engine.plan_s", "s"); ("engine.run_s", "s"); ("engine.factorizations", "count");
    ("engine.unattributed_share", "ratio"); ("store.hit_ratio", "ratio"); ("store.read_s", "s");
    ("store.write_s", "s"); ("store.bytes_read", "bytes"); ("store.bytes_written", "bytes");
    ("store.full_decodes", "count"); ("store.map_hits", "count"); ("registry.lookup_s", "s");
    ("registry.record_s", "s"); ("registry.replays", "count"); ("grid.generate_s", "s");
    ("mna.assemble_s", "s"); ("model.build_s", "s"); ("ordering.order_s", "s");
    ("triple_product.create_s", "s"); ("backend.factor_s", "s"); ("backend.step_s", "s");
    ("backend.recover_s", "s"); ("st.refine_sweeps", "count"); ("st.fallbacks", "count");
    ("backend.precond_setup_s", "s"); ("galerkin.pcg_iterations", "count");
    ("galerkin.fallbacks", "count"); ("kernel.trisolve_s", "s"); ("kernel.galerkin_apply_s", "s");
    ("kernel.spmv_s", "s"); ("kernel.vcycle_s", "s"); ("kernel.trisolve_bw_share", "ratio");
    ("kernel.galerkin_apply_bw_share", "ratio"); ("kernel.spmv_bw_share", "ratio");
    ("kernel.vcycle_bw_share", "ratio"); ("kernel.copy_gbps", "GB/s");
    ("parallel.speedup", "ratio"); ("parallel.dispatches", "count"); ("self.service_s", "s");
    ("self.engine_s", "s"); ("self.model_s", "s"); ("self.store_s", "s");
    ("self.registry_s", "s"); ("self.backend_s", "s"); ("self.kernel_s", "s");
    ("error_share", "ratio");
  ]

(* Program counters of one timed loop, per unit of work (per batch, or
   per request after priming), so they repeat exactly across runs. *)
let counters ~units value =
  let per name = float_of_int (value name) /. float_of_int (max 1 units) in
  let hits = value "store.hits" and misses = value "store.misses" in
  set "store.hit_ratio"
    (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
  List.iter
    (fun name -> set name (per name))
    [
      "engine.factorizations"; "store.full_decodes"; "store.map_hits"; "registry.replays";
      "st.refine_sweeps"; "st.fallbacks"; "galerkin.pcg_iterations"; "galerkin.fallbacks";
    ]

(* Seconds the top-level phases of a traced pass cover. *)
let covered tr =
  let root = List.find (fun s -> s.Spans.name = "job") (Spans.spans tr) in
  List.fold_left (fun acc s -> acc +. Spans.duration s) 0.0 (Spans.children tr root.Spans.id)

(* Per-layer figures of a traced pass. *)
let traced_figures tr (p : Pipeline.result) =
  let self = Spans.layer_self tr in
  List.iter
    (fun l -> set ("self." ^ l ^ "_s") (self l))
    [ "service"; "engine"; "model"; "store"; "registry"; "backend"; "kernel" ];
  let io_sum pick =
    List.fold_left
      (fun acc (sid, hit, bytes) ->
        if pick hit then
          let s = Spans.find tr sid in
          (fst acc +. Spans.self_time tr s, snd acc + bytes)
        else acc)
      (0.0, 0) p.Pipeline.store_io
  in
  let read_s, bytes_read = io_sum Fun.id and write_s, bytes_written = io_sum not in
  set "store.read_s" read_s;
  set "store.write_s" write_s;
  set "store.bytes_read" (float_of_int bytes_read);
  set "store.bytes_written" (float_of_int bytes_written);
  set "registry.record_s" (Spans.total tr "journal");
  set "grid.generate_s" (Spans.total tr "grid.generate");
  set "model.build_s" (Spans.total tr "model.build");
  set "backend.factor_s" (Spans.total tr "cholesky");
  set "backend.precond_setup_s" (Spans.total tr "precond_setup");
  set "backend.step_s" (Spans.total tr "step");
  set "backend.recover_s" (Spans.total tr "recover")

(* Direct timings of public calls the traced pass does not cover for
   every workload, plus the kernel probes on the job's operators. *)
let side_probes (p : Pipeline.result) ~registry ~request_line ~copy_gbps =
  let model = p.Pipeline.model and job = p.Pipeline.job in
  let spec =
    Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default (Pipeline.nodes_of job)
  in
  let circuit = Powergrid.Grid_gen.generate spec in
  set "protocol.parse_s"
    (Ledger.time_median (fun () -> ignore (Service.Protocol.parse request_line)));
  set "engine.plan_s" (Ledger.time_median (fun () -> ignore (Engine.plan [| job |])));
  set "mna.assemble_s"
    (Ledger.time_median ~min_reps:3 (fun () -> ignore (Powergrid.Mna.assemble circuit)));
  let pattern = Opera.Stochastic_model.node_pattern model in
  set "ordering.order_s"
    (Ledger.time_median ~min_reps:3 (fun () ->
         ignore (Linalg.Ordering.compute Linalg.Ordering.Nested_dissection pattern)));
  let basis = model.Opera.Stochastic_model.basis in
  set "triple_product.create_s"
    (Ledger.time_median (fun () -> ignore (Polychaos.Triple_product.create basis)));
  set "registry.lookup_s"
    (Ledger.time_median (fun () -> ignore (Scenario.Registry.lookup registry job)));
  let ga =
    match List.assoc_opt 0 model.Opera.Stochastic_model.g_terms with
    | Some g -> g
    | None -> invalid_arg "model without a nominal conductance term"
  in
  let factor =
    match p.Pipeline.factor with
    | Some f -> f
    | None -> Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection ga
  in
  let kernel name k =
    set ("kernel." ^ name ^ "_s") k.Kernels.seconds;
    set ("kernel." ^ name ^ "_bw_share") (Kernels.bw_share k ~copy_gbps)
  in
  kernel "trisolve" (Kernels.trisolve factor);
  kernel "spmv" (Kernels.spmv (Opera.Galerkin.assemble_g model));
  kernel "galerkin_apply" (Kernels.galerkin_apply model);
  kernel "vcycle" (Kernels.vcycle ga)

(* Start a measured pass from a compacted heap, so the garbage an
   earlier pass left behind is not charged to the next one. *)
let settle () = Gc.compact ()

(* Engine.run on the one-job batch, then the traced pass over the same
   job, in alternation: one warm-up pair, so neither side pays for
   first-touching heap the other already grew and a warm workload's
   traced pass finds the artifacts its first pass stored, then measured
   pairs: at least two, more while they take under ten seconds in all
   (at most nine), so a cheap job is compared often enough for a steady
   median and a costly one stays inside the run's time limit.  Every traced record must equal the engine's.
   engine.run_s and engine.unattributed_share are medians over the
   measured pairs; the spans of the last pair make the trace. *)
let compare_passes ~engine ~pass =
  let pair () =
    settle ();
    let line, seconds = engine () in
    settle ();
    let tr = Spans.create () in
    let p = pass tr in
    check (String.equal p.Pipeline.record line)
      "traced pass record differs from Engine.run's record:\n  traced %s\n  engine %s"
      p.Pipeline.record line;
    (seconds, tr, p)
  in
  ignore (pair ());
  let t = Util.Timer.start () in
  let rec measured acc k =
    if k >= 9 || (k >= 2 && Ledger.elapsed_since t >= 10.0) then acc
    else measured (pair () :: acc) (k + 1)
  in
  let pairs = measured [] 0 in
  Printf.printf "Engine.run vs traced phases (s):%s\n"
    (String.concat ""
       (List.rev_map (fun (e, tr, _) -> Printf.sprintf " %.3f/%.3f" e (covered tr)) pairs));
  set "engine.run_s" (Ledger.median (List.map (fun (e, _, _) -> e) pairs));
  set "engine.unattributed_share"
    (Ledger.median (List.map (fun (e, tr, _) -> Float.abs (e -. covered tr) /. e) pairs));
  let _, tr, p = List.hd pairs in
  traced_figures tr p;
  (tr, p)

let batch_request_line doc = Printf.sprintf {|{"op":"batch","batch":%s}|} doc

(* The batch document cut down to its first job: the traced pass and the
   Engine.run it is compared with both run this one job. *)
let first_job_doc doc =
  match Json.parse doc with
  | Error e -> failwith e
  | Ok j -> (
      match Option.bind (Json.member "jobs" j) Json.to_list with
      | Some (first :: _) ->
          Json.render
            (Json.Obj
               [
                 ("defaults", Option.value ~default:(Json.Obj []) (Json.member "defaults" j));
                 ("jobs", Json.List [ first ]);
               ])
      | _ -> failwith "empty generated batch")

(* The timed loop of a batch workload: whole batches back to back until
   [seconds] have passed (at least one), every stream compared with the
   first.  [batch ~first] runs one batch.  Returns the batches and the
   end-to-end figures; the program's counters go to the per-layer
   table, per batch.  The traced run reports no end-to-end figures and
   needs only one batch's counters, so it stops after one batch to stay
   well inside the time limit. *)
let timed_batches (args : args) ~what ~jobs ~metrics ~setups batch =
  let dispatches = Util.Parallel.pool_dispatches () in
  let t = Util.Timer.start () in
  Ledger.start_rss_windows ();
  let rec loop acc =
    if acc <> [] && (args.trace || Ledger.elapsed_since t >= args.seconds) then List.rev acc
    else
      match Ledger.guard what (fun () -> batch ~first:(acc = [])) with
      | Some b ->
          (* The heap grows over the first three batches before it
             levels off, so a peak over several batches would depend on
             how many fit in the run: only the first batch's counts. *)
          if acc = [] then Ledger.end_rss_window ();
          loop (b :: acc)
      | None -> List.rev acc
  in
  let batches = loop [] in
  let nb = List.length batches in
  set "parallel.dispatches"
    (float_of_int (Util.Parallel.pool_dispatches () - dispatches) /. float_of_int (max 1 nb));
  counters ~units:nb (Util.Metrics.counter metrics);
  keep_program_metrics metrics;
  let reference = match batches with b :: _ -> b.lines | [] -> [] in
  List.iteri
    (fun i b -> same_lines ~what:(Printf.sprintf "%s %d" what i) reference b.lines)
    batches;
  ( batches,
    {
      jobs = jobs * nb;
      busy_s = List.fold_left (fun acc b -> acc +. b.seconds) 0.0 batches;
      first_records = List.map (fun b -> b.first_record) batches;
      requests = List.map (fun b -> b.seconds) batches;
      setups;
    } )

(* ---- transient-20k-cold ----------------------------------------------- *)

(* The st and matrix-free backends solve the same order-2 chaos system
   by collocation and by Galerkin projection; their answers differ by
   the way each treats the truncated order-3 tail, not by solver
   tolerance.  The tolerance is therefore derived from the response
   itself: the order-wise standard deviations s1, s2 of the Galerkin
   PCE at the probe give a geometric decay rate r = s2/s1, and the
   omitted tail is estimated at s2 * r / (1 - r).  Both moments must
   agree within twice that estimate (each method carries one tail);
   the solver tolerances (1e-8 relative and tighter) are negligible
   against it and are not added. *)
let agreement_tolerance (pce : Polychaos.Pce.t) =
  let basis = pce.Polychaos.Pce.basis in
  let orders = Array.make 3 0.0 in
  Array.iteri
    (fun k a ->
      let o = Array.fold_left ( + ) 0 (Polychaos.Basis.index basis k) in
      if o >= 1 && o <= 2 then
        orders.(o) <- orders.(o) +. (a *. a *. Polychaos.Basis.norm_sq basis k))
    pce.Polychaos.Pce.coefs;
  let s1 = sqrt orders.(1) and s2 = sqrt orders.(2) in
  let r = if s1 > 0.0 then Float.min 0.9 (s2 /. s1) else 0.9 in
  2.0 *. s2 *. r /. (1.0 -. r)

let transient_workload args ~nodes ~domains ~run_dir =
  let steps = 20 in
  let rng = Random.State.make [| args.seed; 20_000 |] in
  let cache = Filename.concat run_dir "cache" and stream = Filename.concat run_dir "stream.jsonl" in
  let make_doc rng =
    let s = draw_scales rng 2 in
    let corner name solver scale =
      Json.Obj [ ("name", str name); ("solver", str solver); ("drain_scale", num scale) ]
    in
    batch_doc
      ~defaults:
        [
          ("nodes", int nodes); ("order", int 2); ("steps", int steps);
          ("analysis", str "transient");
        ]
      [
        corner "st0" "st" (List.nth s 0); corner "st1" "st" (List.nth s 1);
        corner "mf" "matrix-free" (List.nth s 0);
      ]
  in
  (* Set-up: input generation and an empty cache directory, repeated on
     copies of the seed's generator so every repeat makes the same doc.
     One set-up takes about 0.1 ms, most of it the directory calls, so
     the median is taken over many. *)
  let setups, docs =
    List.split
      (List.init 101 (fun _ ->
           let rng = Random.State.copy rng in
           let doc, dt =
             Ledger.timed (fun () ->
                 let doc = make_doc rng in
                 ignore (parse_batch doc);
                 ignore (fresh_dir cache);
                 doc)
           in
           (dt, doc)))
  in
  let doc = List.hd docs in
  let metrics = Util.Metrics.create () in
  let config = engine_config ~cache_dir:cache ~domains ~precond:Linalg.Precond.Cholesky ~metrics in
  let batches, e2e =
    timed_batches args ~what:"cold batch" ~jobs:3 ~metrics ~setups (fun ~first ->
        ignore (fresh_dir cache);
        run_batch ~keep_responses:first ~config ~stream doc)
  in
  let reference = match batches with b :: _ -> b.lines | [] -> [] in
  (* st and matrix-free agreement on the shared corner. *)
  (match (batches, reference) with
  | b :: _, [ st; _; mf ] -> (
      let probe = int_of_float (Option.value ~default:0.0 (field_of mf "probe")) in
      match List.nth b.responses 2 with
      | Some response ->
          let tol =
            agreement_tolerance (Opera.Response.pce_at response ~node:probe ~step:steps)
          in
          let get line f = Option.value ~default:nan (field_of line f) in
          let dm = Float.abs (get st "final_mean" -. get mf "final_mean") in
          let ds = Float.abs (get st "final_std" -. get mf "final_std") in
          Printf.printf "st vs matrix-free: |d mean| %.3e V, |d std| %.3e V, tolerance %.3e V\n"
            dm ds tol;
          check (dm <= tol) "st/matrix-free final_mean gap %.3e V > %.3e V" dm tol;
          check (ds <= tol) "st/matrix-free final_std gap %.3e V > %.3e V" ds tol
      | None -> check false "matrix-free corner returned no response")
  | _ -> check false "no reference records to compare st with matrix-free");
  let traced () =
    (* The same batch on one domain must give the same bytes.  This pass
       costs a whole cold batch, so only the traced run makes it. *)
    ignore (fresh_dir cache);
    (match
       Ledger.guard "domains=1 batch" (fun () ->
           run_batch
             ~config:{ config with Engine.domains = 1; metrics = Util.Metrics.create () }
             ~stream doc)
     with
    | Some b ->
        same_lines ~what:"domains=1 batch" reference b.lines;
        set "parallel.speedup" (b.seconds /. Ledger.median e2e.requests)
    | None -> ());
    let one = first_job_doc doc in
    let store_dir = Filename.concat run_dir "trace-store" in
    let engine () =
      rm_rf store_dir;
      ignore (fresh_dir cache);
      let config = { config with Engine.metrics = Util.Metrics.create () } in
      let b = run_batch ~config ~stream one in
      rm_rf cache;
      (List.hd b.lines, b.seconds)
    in
    let pass tr =
      let dir = Some (fresh_dir store_dir) in
      let c = { Pipeline.tr; store = Scenario.Store.create ~dir (); io = ref [] } in
      Pipeline.st_transient c (Scenario.Registry.create ~dir ()) ~parse_layer:"engine"
        ~parse:(fun () -> parse_batch one) ~domains
    in
    let tr, p = compare_passes ~engine ~pass in
    (tr, p, Scenario.Registry.create ~dir:(Some store_dir) (), batch_request_line one)
  in
  (e2e, traced)

(* ---- dc-amg-100k-warm ------------------------------------------------- *)

let dc_workload args ~nodes ~domains ~run_dir =
  let rng = Random.State.make [| args.seed; 100_000 |] in
  let stream = Filename.concat run_dir "stream.jsonl" in
  let precond = Linalg.Precond.Amg in
  let defaults =
    [ ("nodes", int nodes); ("order", int 2); ("analysis", str "dc"); ("solver", str "pcg") ]
  in
  let make_docs rng =
    let corners =
      List.mapi
        (fun i s -> Json.Obj [ ("name", str (Printf.sprintf "d%d" i)); ("drain_scale", num s) ])
        (draw_scales rng 3)
    in
    (batch_doc ~defaults corners, batch_doc ~defaults [ List.hd corners ])
  in
  (* Set-up: input generation and a store prewarmed by a cold run of the
     first corner, which leaves every artifact the operator has. *)
  let setups, prewarmed =
    List.split
      (List.init 3 (fun i ->
           let rng = Random.State.copy rng in
           let cache = fresh_dir (Filename.concat run_dir (Printf.sprintf "cache%d" i)) in
           let (docs, warm), dt =
             Ledger.timed (fun () ->
                 let doc, one = make_docs rng in
                 let config =
                   engine_config ~cache_dir:cache ~domains ~precond
                     ~metrics:(Util.Metrics.create ())
                 in
                 ((doc, one), run_batch ~config ~stream one))
           in
           (dt, (cache, docs, warm))))
  in
  List.iteri (fun i (cache, _, _) -> if i < 2 then rm_rf cache) prewarmed;
  let cache, (doc, one), warm = List.nth prewarmed 2 in
  let metrics = Util.Metrics.create () in
  let config = engine_config ~cache_dir:cache ~domains ~precond ~metrics in
  let batches, e2e =
    timed_batches args ~what:"warm batch" ~jobs:3 ~metrics ~setups (fun ~first:_ ->
        run_batch ~config ~stream doc)
  in
  let reference = match batches with b :: _ -> b.lines | [] -> [] in
  (* The prewarm ran the first corner cold: warm must reproduce it. *)
  (match (warm.lines, reference) with
  | [ cold ], warm0 :: _ -> check (String.equal cold warm0) "cold and warm records of d0 differ"
  | _ -> check false "prewarm produced no record");
  let traced () =
    (match
       Ledger.guard "domains=1 warm batch" (fun () ->
           run_batch
             ~config:{ config with Engine.domains = 1; metrics = Util.Metrics.create () }
             ~stream doc)
     with
    | Some b ->
        same_lines ~what:"domains=1 warm batch" reference b.lines;
        set "parallel.speedup" (b.seconds /. Ledger.median e2e.requests)
    | None -> ());
    let engine () =
      let config = { config with Engine.metrics = Util.Metrics.create () } in
      let b = run_batch ~config ~stream one in
      (List.hd b.lines, b.seconds)
    in
    let dir = Some (fresh_dir (Filename.concat run_dir "trace-store")) in
    let registry = Scenario.Registry.create ~dir () in
    let pass tr =
      let c = { Pipeline.tr; store = Scenario.Store.create ~dir (); io = ref [] } in
      Pipeline.pcg_dc c registry ~parse_layer:"engine" ~parse:(fun () -> parse_batch one) ~domains
    in
    let tr, p = compare_passes ~engine ~pass in
    (tr, p, registry, batch_request_line one)
  in
  (e2e, traced)

(* ---- serve-mixed-2k --------------------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; buf = Buffer.create 4096 }
  | exception e ->
      Unix.close fd;
      raise e

let send conn line =
  let line = line ^ "\n" in
  let len = String.length line in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring conn.fd line !off (len - !off)
  done

let chunk = Bytes.create 65536

(* Complete lines available after one read (blocking). *)
let read_lines conn =
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "server closed the connection"
  | n ->
      Buffer.add_subbytes conn.buf chunk 0 n;
      let data = Buffer.contents conn.buf in
      let parts = String.split_on_char '\n' data in
      let rec split = function
        | [] -> ([], "")
        | [ rest ] -> ([], rest)
        | l :: tl ->
            let ls, rest = split tl in
            (l :: ls, rest)
      in
      let lines, rest = split parts in
      Buffer.clear conn.buf;
      Buffer.add_string conn.buf rest;
      lines

let terminator line =
  match Json.parse line with
  | Ok j -> Json.member "done" j <> None || Json.member "error" j <> None
            || Json.member "stats" j <> None || Json.member "ok" j <> None
  | Error _ -> true

(* Blocking request/response on one connection: record lines and the
   terminator. *)
let rpc conn line =
  send conn line;
  let rec go acc =
    let rec take acc = function
      | [] -> `More acc
      | l :: rest -> if terminator l then `Done (List.rev acc, l, rest) else take (l :: acc) rest
    in
    match take acc (read_lines conn) with
    | `More acc -> go acc
    | `Done (records, term, _) -> (records, term)
  in
  go []

let stats_counters conn =
  let _, line = rpc conn {|{"op":"stats"}|} in
  let stats =
    match Json.parse line with
    | Ok j -> Option.value ~default:(Json.Obj []) (Json.member "stats" j)
    | Error _ -> Json.Obj []
  in
  program_metrics := stats;
  fun name ->
    match Option.bind (Json.member name stats) (Json.member "value") with
    | Some (Json.Num v) -> int_of_float v
    | _ -> 0

let serve_workload args ~nodes ~domains ~run_dir =
  let rng = Random.State.make [| args.seed; 2_000 |] in
  let sock = Filename.concat run_dir "opera.sock" in
  let request_doc rng =
    let drains = draw_scales rng 3 and leak = draw_scale rng in
    batch_doc
      ~defaults:[ ("nodes", int nodes); ("order", int 2); ("solver", str "direct") ]
      (List.mapi
         (fun i s ->
           Json.Obj
             [
               ("name", str (Printf.sprintf "tr%d" i)); ("analysis", str "transient");
               ("drain_scale", num s);
             ])
         drains
      @ [
          Json.Obj
            [
              ("name", str "sp0"); ("analysis", str "special"); ("regions", int 4);
              ("lambda", num 0.5); ("leak_scale", num leak);
            ];
        ])
  in
  let start_server cache =
    let config =
      {
        Service.Server.default_config with
        Service.Server.listen = sock;
        cache_dir = Some cache;
        queue_capacity = 16;
        jobs_parallel = 1;
        domains;
        metrics = Util.Metrics.create ();
        handle_signals = false;
      }
    in
    let server = Domain.spawn (fun () -> Service.Server.run config) in
    let t = Util.Timer.start () in
    let rec await () =
      match connect sock with
      | conn -> conn
      | exception Unix.Unix_error (_, _, _) ->
          if Ledger.elapsed_since t > 30.0 then failwith "server did not start";
          Unix.sleepf 0.002;
          await ()
    in
    (server, await ())
  in
  let stop_server (server, conn) =
    ignore (rpc conn {|{"op":"shutdown"}|});
    Unix.close conn.fd;
    Domain.join server
  in
  (* Set-up: daemon start plus priming with the first request, which
     builds every factor the later requests share.  The timed loop's
     daemon is the first the process starts, and the two further
     set-ups behind the median come after the loop: with two daemons
     started and stopped before it, the loop's resident set settled at
     levels up to half apart from run to run. *)
  let set_up i =
    let rng = Random.State.copy rng in
    let cache = fresh_dir (Filename.concat run_dir (Printf.sprintf "cache%d" i)) in
    let (srv, prime_line, (prime_records, prime_term)), dt =
      Ledger.timed (fun () ->
          let prime_line = batch_request_line (request_doc rng) in
          let srv = start_server cache in
          (srv, prime_line, rpc (snd srv) prime_line))
    in
    check
      (List.length prime_records = 4 && not (String.starts_with ~prefix:{|{"error"|} prime_term))
      "priming request answered %s" prime_term;
    (dt, (srv, cache, rng, prime_line, prime_records))
  in
  let first_setup, (srv, cache, rng, prime_line, prime_records) = set_up 0 in
  let control = snd srv in
  let before = stats_counters control in
  (* Closed loop: two clients, each alternating a fresh request with a
     replay of a request answered earlier. *)
  let answered = ref [| (prime_line, prime_records) |] in
  let fresh_lines = ref [] in
  let latencies = ref [] and firsts = ref [] and replays = ref 0 and requests = ref 0 in
  let clients = Array.init 2 (fun _ -> connect sock) in
  let pick = Random.State.make [| args.seed; 7 |] in
  let state = Array.make 2 None in
  let dispatches = Util.Parallel.pool_dispatches () in
  let t = Util.Timer.start () in
  (* Resident-set windows of half a second; the select timeout below
     keeps a window from running much past that. *)
  Ledger.start_rss_windows ();
  let window = ref (Util.Timer.start ()) in
  let issue i ~fresh =
    let kind, line =
      if fresh then begin
        let line = batch_request_line (request_doc rng) in
        (`Fresh line, line)
      end
      else
        let k = Random.State.int pick (Array.length !answered) in
        (`Replay k, fst !answered.(k))
    in
    send clients.(i) line;
    state.(i) <- Some (kind, Util.Timer.start (), ref nan, ref [], fresh)
  in
  let finish i term =
    match state.(i) with
    | None -> ()
    | Some (kind, sent, first, got, fresh) ->
        let lat = Ledger.elapsed_since sent in
        let records = List.rev !got in
        incr requests;
        latencies := lat :: !latencies;
        check (not (String.starts_with ~prefix:{|{"error"|} term)) "request answered %s" term;
        check (List.length records = 4) "request returned %d records" (List.length records);
        (match kind with
        | `Fresh line ->
            firsts := !first :: !firsts;
            fresh_lines := line :: !fresh_lines;
            answered := Array.append !answered [| (line, records) |]
        | `Replay k ->
            incr replays;
            check (records = snd !answered.(k)) "replay of request %d is not byte-identical" k);
        state.(i) <- None;
        if Ledger.elapsed_since t < args.seconds then issue i ~fresh:(not fresh)
  in
  Array.iteri (fun i _ -> issue i ~fresh:true) clients;
  let last_progress = ref (Util.Timer.start ()) in
  while Array.exists Option.is_some state do
    let fds = List.filter_map (fun i -> Option.map (fun _ -> clients.(i).fd) state.(i)) [ 0; 1 ] in
    let ready, _, _ = Unix.select fds [] [] 0.1 in
    if ready = [] && Ledger.elapsed_since !last_progress > 120.0 then
      failwith "serve clients stalled";
    List.iter
      (fun fd ->
        last_progress := Util.Timer.start ();
        let i = if fd == clients.(0).fd then 0 else 1 in
        List.iter
          (fun line ->
            match state.(i) with
            | Some (_, sent, first, got, _) ->
                if terminator line then finish i line
                else begin
                  if Float.is_nan !first then first := Ledger.elapsed_since sent;
                  got := line :: !got
                end
            | None -> check false "unexpected line from the server: %s" line)
          (read_lines clients.(i)))
      ready;
    if Ledger.elapsed_since !window >= 0.5 then begin
      Ledger.end_rss_window ();
      window := Util.Timer.start ()
    end
  done;
  let elapsed = Ledger.elapsed_since t in
  Ledger.end_rss_window ();
  Array.iter (fun c -> Unix.close c.fd) clients;
  let after = stats_counters control in
  let delta name = after name - before name in
  check (delta "engine.factorizations" = 0) "%d factorizations after priming"
    (delta "engine.factorizations");
  check (delta "service.rejects" = 0) "%d requests rejected" (delta "service.rejects");
  counters ~units:!requests delta;
  set "service.rejects" (float_of_int (delta "service.rejects"));
  set "service.replay_share" (float_of_int !replays /. float_of_int (max 1 !requests));
  set "parallel.dispatches"
    (float_of_int (Util.Parallel.pool_dispatches () - dispatches)
    /. float_of_int (max 1 !requests));
  stop_server srv;
  let setups =
    first_setup
    :: List.init 2 (fun i ->
           let dt, (srv, cache, _, _, _) = set_up (i + 1) in
           stop_server srv;
           rm_rf cache;
           dt)
  in
  let e2e =
    {
      jobs = 4 * !requests;
      busy_s = elapsed;
      first_records = !firsts;
      requests = !latencies;
      setups;
    }
  in
  let traced () =
    let last = match !fresh_lines with l :: _ -> l | [] -> prime_line in
    let doc_of line =
      match Json.parse line with
      | Ok j -> Json.render (Option.value ~default:Json.Null (Json.member "batch" j))
      | Error e -> failwith e
    in
    let doc = doc_of last in
    let one = first_job_doc doc in
    let stream = Filename.concat run_dir "stream.jsonl" in
    let by_domains d doc =
      run_batch
        ~config:
          (engine_config ~cache_dir:cache ~domains:d ~precond:Linalg.Precond.Cholesky
             ~metrics:(Util.Metrics.create ()))
        ~stream doc
    in
    let b1 = by_domains 1 doc and b2 = by_domains 2 doc in
    same_lines ~what:"served request replayed by the engine"
      (snd !answered.(Array.length !answered - 1))
      b1.lines;
    same_lines ~what:"serve batch on two domains" b1.lines b2.lines;
    set "parallel.speedup" (b1.seconds /. b2.seconds);
    let engine () =
      let b = by_domains domains one in
      (List.hd b.lines, b.seconds)
    in
    let dir = Some (fresh_dir (Filename.concat run_dir "trace-store")) in
    let registry = Scenario.Registry.create ~dir () in
    let request_line = batch_request_line one in
    let parse () =
      match Service.Protocol.parse request_line with
      | Ok (Service.Protocol.Batch { jobs; _ }) -> jobs
      | Ok _ | Error _ -> failwith "request line does not parse as a batch"
    in
    let pass tr =
      let c = { Pipeline.tr; store = Scenario.Store.create ~dir (); io = ref [] } in
      Pipeline.direct_transient c registry ~parse_layer:"service" ~parse ~domains
    in
    let tr, p = compare_passes ~engine ~pass in
    (tr, p, registry, request_line)
  in
  (e2e, traced)

(* ---- main ------------------------------------------------------------- *)

(* Name -> runner, grid nodes, grid nodes under --smoke, inner solver
   domains (jobs_parallel is 1 everywhere).  The daemon executes on one
   domain, like `opera serve` without OPERA_DOMAINS. *)
let workloads =
  [
    ("transient-20k-cold", (transient_workload, 20_000, 1_500, 2));
    ("dc-amg-100k-warm", (dc_workload, 100_000, 3_000, 2));
    ("serve-mixed-2k", (serve_workload, 2_000, 400, 1));
  ]

let () =
  let args = parse_args () in
  Printexc.record_backtrace true;
  (* A peer that hangs up must surface as EPIPE on the write, as in
     `opera serve`, not end the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter (fun m -> set m 0.0) [ "service.replay_share"; "service.rejects" ];
  let run, nodes, domains =
    match List.assoc_opt args.workload workloads with
    | Some (run, full, smoke, domains) -> (run, (if args.smoke then smoke else full), domains)
    | None -> usage ()
  in
  if not (Sys.file_exists args.work_dir && Sys.is_directory args.work_dir) then
    Ledger.die "--work-dir %s is not a directory" args.work_dir;
  print_endline
    (Json.render
       (Json.Obj
          [
            ( "header",
              Ledger.header ~workload:args.workload ~seed:args.seed
                ~seconds:(int_of_float args.seconds) ~trace:args.trace ~domains ~jobs_parallel:1 );
          ]));
  (* The copy ceiling runs first and only in the traced run, so its
     arrays never count towards peak_rss_mb. *)
  let copy_gbps =
    if args.trace then begin
      let c = Ledger.copy_bandwidth () in
      Gc.full_major ();
      Printf.printf "copy ceiling: %.2f GB/s over two %.0f MiB arrays (%.0f MiB combined; LLC %s)\n"
        c.Ledger.gbps (Ledger.mib c.Ledger.array_bytes)
        (Ledger.mib (2 * c.Ledger.array_bytes))
        (match c.Ledger.llc with
        | Some b -> Printf.sprintf "%.0f MiB" (Ledger.mib b)
        | None -> "unknown");
      set "kernel.copy_gbps" c.Ledger.gbps;
      c.Ledger.gbps
    end
    else nan
  in
  (* The workload keeps its caches here; nothing of a run but its trace
     file outlives it. *)
  let run_dir = fresh_dir (Filename.concat args.work_dir args.workload) in
  at_exit (fun () -> rm_rf run_dir);
  match Ledger.guard args.workload (fun () -> run args ~nodes ~domains ~run_dir) with
  | None -> Ledger.die "workload %s failed before producing figures" args.workload
  | Some (e2e, traced) ->
      let tail, pct, samples = Ledger.tail e2e.requests in
      Printf.printf
        "request_tail_s is p%.1f of %d request samples; first_record_s is the mean of %d, \
         setup_s the median of %d\n"
        pct samples (List.length e2e.first_records) (List.length e2e.setups);
      Printf.printf "peak_rss_mb is the median of %d window peaks (%s)\n"
        (List.length !Ledger.window_peaks) (Ledger.window_peaks_kind ());
      let show xs = String.concat " " (List.map (Printf.sprintf "%.3f") xs) in
      Printf.printf "requests (s): %s\nset-ups (s): %s\nwindow peaks (MiB): %s\n"
        (show e2e.requests) (show e2e.setups)
        (show (List.rev !Ledger.window_peaks));
      if args.trace then begin
        (match Ledger.guard "traced pass" traced with
        | Some (tr, p, registry, request_line) ->
            ignore
              (Ledger.guard "side probes" (fun () ->
                   side_probes p ~registry ~request_line ~copy_gbps));
            let path =
              Filename.concat args.work_dir
                (Printf.sprintf "trace-%s-seed%d.json" args.workload args.seed)
            in
            Spans.write_chrome tr path
              ~other:
                [
                  ("program_metrics", !program_metrics);
                  ("record", Json.Str p.Pipeline.record);
                ];
            Printf.printf "trace written to %s\n" path
        | None -> ());
        set "error_share"
          (float_of_int !Ledger.failed /. float_of_int (max 1 !Ledger.attempted));
        Ledger.print_result
          (List.map
             (fun (name, unit) ->
               (name, Option.value ~default:nan (Hashtbl.find_opt layer name), unit))
             per_layer)
      end
      else
        Ledger.print_result
          [
            ("jobs_per_s", float_of_int e2e.jobs /. e2e.busy_s, "1/s");
            (* The mean, not the median: on serve half the fresh requests
               queue behind the other client's fresh request, so their
               first-record times are bimodal by construction and a
               median would flip between the two modes from run to run. *)
            ("first_record_s", Ledger.mean e2e.first_records, "s");
            ("request_p50_s", Ledger.median e2e.requests, "s");
            ("request_tail_s", tail, "s");
            ("setup_s", Ledger.median e2e.setups, "s");
            ("peak_rss_mb", Ledger.median !Ledger.window_peaks, "MiB");
          ]
