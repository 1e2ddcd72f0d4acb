(* Scenario.Store: read-through caching and the never-trust-a-damaged-
   artifact discipline.

   Corruption cases (truncation, bit flip, version bump, wrong kind,
   semantic decode mismatch) must each count as a miss+corrupt, trigger
   a rebuild, and leave the store returning a value identical to the
   cold build. *)

module Store = Scenario.Store
module C = Util.Codec

(* A unique empty directory name per call (Store.create mkdirs it). *)
let fresh_dir () =
  let marker = Filename.temp_file "opera_store_test" "" in
  Sys.remove marker;
  marker ^ ".d"

let payload = Array.init 64 (fun i -> sin (float_of_int i) *. 1e6)

let builds = ref 0

let lookup store =
  Store.find_or_build store ~kind:"test" ~version:1 ~key:"k0"
    ~encode:(fun v e -> C.write_float_array e v)
    ~decode:C.read_float_array
    ~build:(fun () ->
      incr builds;
      Array.copy payload)

let check_stats what store ~hits ~misses ~corrupt =
  let s = Store.stats store in
  Alcotest.(check int) (what ^ ": hits") hits s.Store.hits;
  Alcotest.(check int) (what ^ ": misses") misses s.Store.misses;
  Alcotest.(check int) (what ^ ": corrupt") corrupt s.Store.corrupt

let check_payload what v =
  Alcotest.(check bool)
    (what ^ ": value matches cold build bitwise")
    true
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       payload v)

let test_miss_then_hit () =
  builds := 0;
  let store = Store.create ~metrics:(Util.Metrics.create ()) ~dir:(Some (fresh_dir ())) () in
  check_payload "cold" (lookup store);
  check_payload "warm" (lookup store);
  check_payload "warm again" (lookup store);
  Alcotest.(check int) "built exactly once" 1 !builds;
  check_stats "miss then hits" store ~hits:2 ~misses:1 ~corrupt:0

let test_disabled_always_builds () =
  builds := 0;
  check_payload "disabled" (lookup Store.disabled);
  check_payload "disabled again" (lookup Store.disabled);
  Alcotest.(check int) "no caching without a dir" 2 !builds

let artifact_path store =
  match Store.path store ~kind:"test" ~key:"k0" with
  | Some p -> p
  | None -> Alcotest.fail "enabled store must expose the artifact path"

(* Damage the cached artifact with [mangle], then look it up again: the
   store must detect the damage, rebuild, and return the cold value. *)
let corruption_case what mangle =
  builds := 0;
  let store = Store.create ~metrics:(Util.Metrics.create ()) ~dir:(Some (fresh_dir ())) () in
  check_payload (what ^ ": cold") (lookup store);
  let path = artifact_path store in
  let bytes = Helpers.read_bytes path in
  (match mangle bytes with
  | Some damaged -> C.write_file path damaged
  | None -> Sys.remove path);
  check_payload (what ^ ": after damage") (lookup store);
  Alcotest.(check int) (what ^ ": rebuilt") 2 !builds;
  (* and the rebuild must heal the store: next lookup is a clean hit *)
  check_payload (what ^ ": healed") (lookup store);
  Alcotest.(check int) (what ^ ": no third build") 2 !builds;
  Store.stats store

let test_truncated () =
  let s = corruption_case "truncated" (fun b -> Some (String.sub b 0 (String.length b / 2))) in
  Alcotest.(check int) "truncation counts as corrupt" 1 s.Store.corrupt

let test_bit_flip () =
  let s =
    corruption_case "bit flip" (fun b ->
        let bytes = Bytes.of_string b in
        let pos = Bytes.length bytes - 3 in
        Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x01));
        Some (Bytes.to_string bytes))
  in
  Alcotest.(check int) "bit flip counts as corrupt" 1 s.Store.corrupt

let frame ~kind ~version meta = C.frame_v2 ~kind ~version ~meta ~sections:[]

let test_wrong_kind () =
  let s =
    corruption_case "wrong kind" (fun _ ->
        Some (frame ~kind:"other" ~version:1 (fun e -> C.write_float_array e payload)))
  in
  Alcotest.(check int) "kind mismatch counts as corrupt" 1 s.Store.corrupt

let test_version_mismatch () =
  let s =
    corruption_case "older schema" (fun _ ->
        Some (frame ~kind:"test" ~version:0 (fun e -> C.write_float_array e payload)))
  in
  Alcotest.(check int) "schema version counts as corrupt" 1 s.Store.corrupt

let test_semantic_decode_mismatch () =
  (* a frame that validates but whose payload the decoder rejects *)
  let s =
    corruption_case "semantic mismatch" (fun _ ->
        Some (frame ~kind:"test" ~version:1 (fun e -> C.write_string e "not an array")))
  in
  Alcotest.(check bool) "decode rejection counts as corrupt" true (s.Store.corrupt >= 1)

let test_format_1_artifact () =
  (* A cache directory from before the single frame format still holds
     format-1 frames: they fail the format byte and are rebuilt. *)
  let s =
    corruption_case "format 1" (fun _ ->
        let e = C.encoder () in
        C.write_float_array e payload;
        Some (Helpers.v1_frame ~kind:"test" ~version:1 (C.contents e)))
  in
  Alcotest.(check int) "format-1 frame counts as corrupt" 1 s.Store.corrupt

let test_zero_length_artifact () =
  (* The frame reader raises Corrupt on a zero-length file; the store must fold
     that into the usual drop-and-rebuild path. *)
  let s = corruption_case "zero-length" (fun _ -> Some "") in
  Alcotest.(check int) "zero-length counts as corrupt" 1 s.Store.corrupt

let test_deleted_file () =
  let s = corruption_case "deleted artifact" (fun _ -> None) in
  Alcotest.(check int) "plain miss, not corrupt" 0 s.Store.corrupt;
  Alcotest.(check int) "two misses" 2 s.Store.misses

(* A decoder may blow up with something other than Codec.Corrupt — an
   Invalid_argument from a stale schema indexing out of bounds, say.
   The store must treat that exactly like corruption: rebuild, count it,
   heal.  Crashing the whole batch over one stale artifact is the bug
   this guards against. *)
let lookup_decoding_with store decode =
  Store.find_or_build store ~kind:"test" ~version:1 ~key:"k0"
    ~encode:(fun v e -> C.write_float_array e v)
    ~decode
    ~build:(fun () ->
      incr builds;
      Array.copy payload)

let test_decoder_exception_rebuilds () =
  builds := 0;
  let store = Store.create ~metrics:(Util.Metrics.create ()) ~dir:(Some (fresh_dir ())) () in
  check_payload "cold" (lookup store);
  let v = lookup_decoding_with store (fun _ -> invalid_arg "index out of bounds") in
  check_payload "after decoder exception" v;
  Alcotest.(check int) "rebuilt" 2 !builds;
  Alcotest.(check int) "decoder exception counts as corrupt" 1 (Store.stats store).Store.corrupt;
  (* the rebuild rewrote the artifact, so a sane decoder now hits *)
  check_payload "healed" (lookup store);
  Alcotest.(check int) "no third build" 2 !builds

let test_fatal_exceptions_propagate () =
  builds := 0;
  let store = Store.create ~metrics:(Util.Metrics.create ()) ~dir:(Some (fresh_dir ())) () in
  check_payload "cold" (lookup store);
  Alcotest.check_raises "Out_of_memory is never swallowed" Out_of_memory (fun () ->
      ignore (lookup_decoding_with store (fun _ -> raise Out_of_memory)));
  (* and the artifact must survive — OOM is the machine's problem, not
     evidence the file is damaged *)
  Alcotest.(check bool) "artifact not removed" true (Sys.file_exists (artifact_path store));
  Alcotest.(check int) "not counted as corrupt" 0 (Store.stats store).Store.corrupt

let suite =
  [
    Alcotest.test_case "miss builds once, hits after" `Quick test_miss_then_hit;
    Alcotest.test_case "disabled store always builds" `Quick test_disabled_always_builds;
    Alcotest.test_case "truncated artifact is rebuilt" `Quick test_truncated;
    Alcotest.test_case "bit-flipped artifact is rebuilt" `Quick test_bit_flip;
    Alcotest.test_case "wrong-kind artifact is rebuilt" `Quick test_wrong_kind;
    Alcotest.test_case "version-mismatched artifact is rebuilt" `Quick test_version_mismatch;
    Alcotest.test_case "semantic decode mismatch is rebuilt" `Quick test_semantic_decode_mismatch;
    Alcotest.test_case "format-1 artifact is rebuilt" `Quick test_format_1_artifact;
    Alcotest.test_case "zero-length artifact is rebuilt" `Quick test_zero_length_artifact;
    Alcotest.test_case "deleted artifact is a plain miss" `Quick test_deleted_file;
    Alcotest.test_case "decoder exception is rebuilt" `Quick test_decoder_exception_rebuilds;
    Alcotest.test_case "fatal exceptions propagate" `Quick test_fatal_exceptions_propagate;
  ]
