(* CLI exit-code discipline, exercised on the real executable.

   Contract (shared by every subcommand through Cli_common.dispatch):
     0  success, --help, --version
     2  unknown subcommand, unknown flag, malformed value, bad job file
   The tests shell out to the built opera binary (a test dep), with
   stdout/stderr sent to /dev/null — only the exit codes matter here. *)

let exe = "../bin/opera_cli.exe"

let exit_code args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote exe) args)

let check what expected args = Alcotest.(check int) what expected (exit_code args)

let test_help_exits_zero () =
  check "opera --help" 0 "--help";
  check "opera -h" 0 "-h";
  check "opera help" 0 "help";
  check "opera --version" 0 "--version";
  List.iter
    (fun sub -> check (sub ^ " --help") 0 (sub ^ " --help"))
    [ "generate"; "analyze"; "mc"; "compare"; "special"; "batch"; "walk" ];
  check "analyze -h" 0 "analyze -h"

let test_usage_errors_exit_two () =
  check "no arguments" 2 "";
  check "unknown subcommand" 2 "frobnicate";
  check "unknown flag" 2 "analyze --bogus";
  check "unknown flag (generate)" 2 "generate --bogus";
  check "malformed int" 2 "analyze --nodes many";
  check "malformed enum" 2 "analyze --solver qr";
  check "flag missing its value" 2 "analyze --nodes";
  check "unexpected positional" 2 "analyze stray";
  check "batch without a file" 2 "batch";
  check "batch with a missing file" 2 "batch /nonexistent/jobs.json";
  check "batch with extra positionals" 2 "batch a.json b.json";
  check "--resume without --cache-dir" 2 "batch --resume /nonexistent/jobs.json";
  check "--gc-results without --cache-dir" 2 "batch --gc-results /nonexistent/jobs.json";
  check "malformed --shard" 2 "batch --shard x /nonexistent/jobs.json";
  check "--shard missing the slash" 2 "batch --shard 2 /nonexistent/jobs.json";
  check "--shard index out of range" 2 "batch --shard 3/2 /nonexistent/jobs.json";
  check "--shard count of zero" 2 "batch --shard 0/0 /nonexistent/jobs.json";
  check "--shard=I/K malformed (= form)" 2 "batch --shard=3/2 /nonexistent/jobs.json";
  check "batch --cache-max-bytes without --cache-dir" 2
    "batch --cache-max-bytes 1M /nonexistent/jobs.json";
  check "batch malformed --cache-max-bytes" 2
    "batch --cache-dir /tmp --cache-max-bytes lots /nonexistent/jobs.json"

let with_temp_file contents f =
  let path = Filename.temp_file "opera_cli_test" ".json" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_batch_rejects_malformed_jobs () =
  with_temp_file "{ not json" (fun path ->
      check "malformed JSON" 2 ("batch " ^ Filename.quote path));
  with_temp_file {|{"jobs": [{"analysis": "dc", "nodez": 10}]}|} (fun path ->
      check "unknown job field" 2 ("batch " ^ Filename.quote path));
  with_temp_file {|{"jobs": []}|} (fun path ->
      check "empty batch" 2 ("batch " ^ Filename.quote path));
  with_temp_file {|{"jobs": [{"name": "a", "analysis": "dc"}, {"name": "a", "analysis": "dc"}]}|}
    (fun path -> check "duplicate job names" 2 ("batch " ^ Filename.quote path));
  with_temp_file {|{"jobs": [{"analysis": "special", "regions": 5}]}|} (fun path ->
      check "non-tileable region count" 2 ("batch " ^ Filename.quote path));
  with_temp_file {|{"jobs": [{"analysis": "dc", "nodes": 60, "probe": 1000000}]}|} (fun path ->
      check "out-of-range probe" 2 ("batch " ^ Filename.quote path))

(* serve flag validation: every malformed form must exit 2 before any
   socket is bound (the daemon never starts). *)
let test_serve_usage_errors_exit_two () =
  check "serve --help" 0 "serve --help";
  check "serve unknown flag" 2 "serve --bogus";
  check "serve unexpected positional" 2 "serve stray";
  check "serve --queue 0" 2 "serve --queue 0 --cache-dir /tmp";
  check "serve --queue=0 (= form)" 2 "serve --queue=0 --cache-dir /tmp";
  check "serve --queue=: empty value" 2 "serve --queue= --cache-dir /tmp";
  check "serve malformed --tcp" 2 "serve --tcp nope";
  check "serve --tcp port out of range" 2 "serve --tcp 70000";
  check "serve --cache-max-bytes without --cache-dir" 2 "serve --cache-max-bytes 1M";
  check "serve malformed --cache-max-bytes" 2 "serve --cache-dir /tmp --cache-max-bytes lots";
  check "serve --cache-max-bytes=-1" 2 "serve --cache-dir /tmp --cache-max-bytes=-1";
  check "serve --max-results without --cache-dir" 2 "serve --max-results 100";
  check "serve malformed --max-results" 2 "serve --cache-dir /tmp --max-results some";
  check "serve empty --listen" 2 "serve --listen= --cache-dir /tmp --queue 0";
  (* a listen path occupied by a regular file is refused (Invalid_config -> 2) *)
  with_temp_file "not a socket" (fun path ->
      check "serve --listen over a regular file" 2 ("serve --listen " ^ Filename.quote path))

let test_batch_runs_a_tiny_batch () =
  with_temp_file
    {|{"defaults": {"nodes": 120, "steps": 2, "solver": "direct"},
       "jobs": [{"name": "a", "analysis": "dc"},
                {"name": "b", "analysis": "dc", "drain_scale": 1.5}]}|}
    (fun path ->
      check "tiny batch runs clean" 0 ("batch " ^ Filename.quote path);
      check "dry-run plans without solving" 0 ("batch --dry-run " ^ Filename.quote path))

let with_temp_dir f =
  let dir = Filename.temp_file "opera_cli_cache" "" in
  Sys.remove dir;
  let rm_rf () =
    if Sys.file_exists dir then begin
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:rm_rf (fun () -> f dir)

let test_batch_resume_and_shard_exit_zero () =
  with_temp_file
    {|{"defaults": {"nodes": 120, "steps": 2, "solver": "direct"},
       "jobs": [{"name": "a", "analysis": "dc"},
                {"name": "b", "analysis": "dc", "drain_scale": 1.5}]}|}
    (fun path ->
      with_temp_dir (fun dir ->
          let d = Filename.quote dir and p = Filename.quote path in
          check "cold cached batch" 0 (Printf.sprintf "batch --cache-dir %s %s" d p);
          check "resumed batch" 0 (Printf.sprintf "batch --cache-dir %s --resume %s" d p);
          (* with 2 jobs one of the 2 shards may be empty; both must still
             succeed, and together they cover the batch *)
          check "shard 0/2" 0 (Printf.sprintf "batch --cache-dir %s --shard 0/2 %s" d p);
          check "shard 1/2" 0 (Printf.sprintf "batch --cache-dir %s --shard 1/2 %s" d p);
          check "gc keeps a live batch" 0
            (Printf.sprintf "batch --cache-dir %s --resume --gc-results %s" d p)))

(* [opera compare] end to end on a 300-node target grid.  The grid, node
   count, four error columns, the +-3sigma column and the mu-mu0 column
   are pinned: a refactor must print them unchanged.  The timing columns
   are not checked. *)
let test_compare_pinned_row () =
  let out = Filename.temp_file "opera_cli_compare" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s compare --nodes 300 --samples 20 --steps 4 --domains 1 >%s 2>&1"
             (Filename.quote exe) (Filename.quote out))
      in
      Alcotest.(check int) "compare exits 0" 0 code;
      let lines = In_channel.with_open_text out In_channel.input_lines in
      let cells line =
        String.split_on_char '|' line |> List.map String.trim |> List.filter (( <> ) "")
      in
      let row =
        match List.filter (fun l -> String.starts_with ~prefix:"| 281n" l) lines with
        | [ l ] -> cells l
        | _ -> Alcotest.fail ("no single 281n row in:\n" ^ String.concat "\n" lines)
      in
      Alcotest.(check (list string))
        "non-timing columns"
        [ "281n"; "281"; "0.0107"; "0.0563"; "6.66"; "6.83"; "+-31"; "0.0036" ]
        (List.filteri (fun i _ -> i < 8) row))

(* stderr of one run, for the cases where the message itself is the
   contract. *)
let stderr_of args =
  let err = Filename.temp_file "opera_cli_test" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s >/dev/null 2>%s" (Filename.quote exe) args (Filename.quote err))
      in
      (code, String.trim (Helpers.read_bytes err)))

(* A region count the near-square split cannot tile (5, or 0) must make
   [opera special] exit 2 with the message a batch special job gets,
   not run with a rounded count. *)
let test_special_rejects_untileable_regions () =
  let ends_with ~suffix what s =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S ends with %S" what s suffix)
      true
      (String.ends_with ~suffix s)
  in
  let batch_msg =
    with_temp_file {|{"jobs": [{"analysis": "special", "regions": 5}]}|} (fun path ->
        snd (stderr_of ("batch " ^ Filename.quote path)))
  in
  List.iter
    (fun (regions, msg) ->
      let code, err = stderr_of (Printf.sprintf "special --nodes 60 --regions %s" regions) in
      Alcotest.(check int) ("special --regions " ^ regions ^ " exits 2") 2 code;
      Alcotest.(check string) ("special --regions " ^ regions ^ " message") msg err)
    [
      ("5", "opera special: field \"regions\" must tile a near-square rx*ry grid; 5 does not \
              (nearest are 4 and 6)");
      ("0", "opera special: field \"regions\" must be > 0");
    ];
  ends_with "batch names the same rule"
    ~suffix:"field \"regions\" must tile a near-square rx*ry grid; 5 does not (nearest are 4 and 6)"
    batch_msg

let suite =
  [
    Alcotest.test_case "--help and --version exit 0" `Quick test_help_exits_zero;
    Alcotest.test_case "usage errors exit 2" `Quick test_usage_errors_exit_two;
    Alcotest.test_case "bad job files exit 2" `Quick test_batch_rejects_malformed_jobs;
    Alcotest.test_case "serve usage errors exit 2" `Quick test_serve_usage_errors_exit_two;
    Alcotest.test_case "special rejects untileable --regions" `Quick
      test_special_rejects_untileable_regions;
    Alcotest.test_case "a tiny batch exits 0" `Slow test_batch_runs_a_tiny_batch;
    Alcotest.test_case "resume and shard flags exit 0" `Slow test_batch_resume_and_shard_exit_zero;
    Alcotest.test_case "compare prints the pinned row" `Slow test_compare_pinned_row;
  ]
