(* Shared plumbing of the benchmark: order statistics, the correctness
   tally behind [attempted]/[failed], machine and process figures, the
   copy-bandwidth ceiling, the run header and the result line. *)

let log fmt = Printf.ksprintf prerr_endline fmt

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("opera_bench: " ^ msg);
      exit 2)
    fmt

let elapsed_since t = Util.Timer.elapsed_s t

(* Run [f] and return its result with the monotonic seconds it took. *)
let timed f =
  let t = Util.Timer.start () in
  let v = f () in
  (v, elapsed_since t)

(* ---- order statistics ------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Median; the midpoint of the two middle samples for even counts. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The highest percentile with at least 10 samples beyond it, as
   (value, percentile, sample count).  With 10 samples or fewer no such
   percentile exists and the maximum (p100) stands in for it. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 100.0, 0)
  else if n <= 10 then (a.(n - 1), 100.0, n)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n, n)

(* Median seconds of [f ()] over at least [min_reps] calls, stopping
   once half a second has been spent after the minimum (200 calls at
   most). *)
let time_median ?(min_reps = 5) f =
  let t = Util.Timer.start () in
  let rec go acc k =
    if k >= 200 || (k >= min_reps && elapsed_since t > 0.5) then acc
    else
      let (), dt = timed f in
      go (dt :: acc) (k + 1)
  in
  median (go [] 0)

(* ---- correctness tally ----------------------------------------------- *)

(* Every check is one attempted operation; a failed check, an error
   response or an exception is one failed operation. *)
let attempted = ref 0

let failed = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun what ->
      incr attempted;
      if not ok then begin
        incr failed;
        log "FAILED: %s" what
      end)
    fmt

let guard what f =
  match f () with
  | v -> Some v
  | exception e ->
      let trace = Printexc.get_backtrace () in
      check false "%s raised %s\n%s" what (Printexc.to_string e) trace;
      None

(* ---- machine and process figures ------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
          in
          go [])

let first_line path = match read_lines path with l :: _ -> Some (String.trim l) | [] -> None

(* A "%d kB" field of /proc/self/status (VmHWM, VmRSS), in MiB. *)
let status_mib field =
  read_lines "/proc/self/status"
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ f; v ] when f = field ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
         | _ -> None)
  |> Option.value ~default:nan

(* Writing 5 to clear_refs resets VmHWM to the current resident set;
   false where the kernel refuses. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> false
  | oc -> (
      match
        output_string oc "5";
        close_out oc
      with
      | () -> true
      | exception Sys_error _ ->
          close_out_noerr oc;
          false)

(* Resident-set peaks of the timed loop's windows: its first batch, or
   each half second of the serve loop.  peak_rss_mb is their median.
   Each window starts with a VmHWM reset, so VmHWM at its end is the
   window's peak and set-up's own peak is left out.  On serve the median
   keeps a window in which the garbage collector let the heap run up
   from deciding the figure.  Where the reset is refused, VmRSS at the
   window's end stands in, and [window_peaks_kind] says so. *)
let window_peaks = ref []

let peak_resets = ref false

let start_rss_windows () =
  window_peaks := [];
  peak_resets := reset_peak_rss ()

let end_rss_window () =
  let v = if !peak_resets then status_mib "VmHWM" else status_mib "VmRSS" in
  window_peaks := v :: !window_peaks;
  if !peak_resets then peak_resets := reset_peak_rss ()

let window_peaks_kind () =
  if !peak_resets then "VmHWM reset per window" else "VmRSS at window ends (VmHWM reset refused)"

(* Size in bytes of the highest-level CPU cache sysfs reports. *)
let llc_bytes () =
  let parse s =
    let n = String.length s in
    if n = 0 then None
    else
      let mult = match s.[n - 1] with 'K' -> 1024 | 'M' -> 1 lsl 20 | 'G' -> 1 lsl 30 | _ -> 1 in
      let digits = if mult = 1 then s else String.sub s 0 (n - 1) in
      Option.map (fun v -> v * mult) (int_of_string_opt digits)
  in
  let best = ref None in
  for i = 0 to 7 do
    let dir = Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d" i in
    match (first_line (dir ^ "/level"), Option.bind (first_line (dir ^ "/size")) parse) with
    | Some level, Some size -> (
        let level = int_of_string_opt level |> Option.value ~default:0 in
        match !best with
        | Some (l, _) when l >= level -> ()
        | _ -> best := Some (level, size))
    | _ -> ()
  done;
  Option.map snd !best

let mib b = float_of_int b /. float_of_int (1 lsl 20)

(* Commit of the checkout when it is a git work tree, read straight from
   .git so no process is started. *)
let git_revision () =
  match first_line ".git/HEAD" with
  | None -> "none (not a git checkout)"
  | Some head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match first_line (Filename.concat ".git" r) with
          | Some sha -> sha
          | None ->
              read_lines ".git/packed-refs"
              |> List.find_map (fun l ->
                     match String.split_on_char ' ' l with
                     | [ sha; name ] when name = r -> Some sha
                     | _ -> None)
              |> Option.value ~default:("unresolved " ^ r))
      | _ -> head)

(* Digest of every source file of the program and the benchmark, so a
   figure can be tied to the code it measured even outside git. *)
let source_digest () =
  let rec walk dir acc =
    match Sys.readdir dir with
    | exception Sys_error _ -> acc
    | names ->
        Array.sort compare names;
        Array.fold_left
          (fun acc name ->
            let path = Filename.concat dir name in
            if Sys.is_directory path then walk path acc
            else if
              List.exists (Filename.check_suffix name) [ ".ml"; ".mli"; "dune"; ".py" ]
            then path :: acc
            else acc)
          acc names
  in
  let files =
    List.rev (List.fold_left (fun acc d -> walk d acc) [] [ "lib"; "bin"; "perfbench" ])
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string buf f;
      Buffer.add_string buf (Digest.to_hex (Digest.file f)))
    files;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents buf))) 0 16

let utc_date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

(* ---- copy-bandwidth ceiling ------------------------------------------ *)

type copy_probe = { gbps : float; array_bytes : int; llc : int option }

(* Single-domain copy between two float64 arrays whose combined size is
   four times the last-level cache (1 GiB combined when sysfs reports no
   cache).  Bytes moved per copy = one read plus one write of an array;
   the result is the median of five copies after a first-touch pass. *)
let copy_bandwidth () =
  let llc = llc_bytes () in
  let total = match llc with Some b -> 4 * b | None -> 1 lsl 30 in
  let n = total / 2 / 8 in
  let open Bigarray in
  let src = Array1.create float64 c_layout n and dst = Array1.create float64 c_layout n in
  Array1.fill src 1.0;
  Array1.fill dst 0.0;
  let times = List.init 5 (fun _ -> snd (timed (fun () -> Array1.blit src dst))) in
  let array_bytes = n * 8 in
  let gbps = 2.0 *. float_of_int array_bytes /. median times /. 1e9 in
  { gbps; array_bytes; llc }

(* ---- output ---------------------------------------------------------- *)

let num v = Util.Json.Num v

let header ~workload ~seed ~seconds ~trace ~domains ~jobs_parallel =
  Util.Json.Obj
    [
      ("git_revision", Util.Json.Str (git_revision ()));
      ("source_digest", Util.Json.Str (source_digest ()));
      ("ocaml", Util.Json.Str Sys.ocaml_version);
      ("nproc", num (float_of_int (Domain.recommended_domain_count ())));
      ("domains", num (float_of_int domains));
      ("jobs_parallel", num (float_of_int jobs_parallel));
      ( "llc_bytes",
        match llc_bytes () with Some b -> num (float_of_int b) | None -> Util.Json.Null );
      ("date", Util.Json.Str (utc_date ()));
      ("workload", Util.Json.Str workload);
      ("seed", num (float_of_int seed));
      ("seconds", num (float_of_int seconds));
      ("trace", Util.Json.Bool trace);
    ]

(* The last line of standard output: the run's result object. *)
let print_result metrics =
  let metric (name, value, unit) =
    (name, Util.Json.Obj [ ("value", num value); ("unit", Util.Json.Str unit) ])
  in
  let doc =
    Util.Json.Obj
      [
        ("correct", Util.Json.Bool (!failed = 0 && !attempted > 0));
        ("attempted", num (float_of_int (max 1 !attempted)));
        ("failed", num (float_of_int !failed));
        ("metrics", Util.Json.Obj (List.map metric metrics));
      ]
  in
  print_string (Util.Json.render doc);
  print_newline ()
