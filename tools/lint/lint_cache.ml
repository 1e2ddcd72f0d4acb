(* Incremental lint cache.

   One [Util.Codec] frame (zero sections) per analyzed source file,
   named by a digest of its project-relative path, keyed inside by
   (source digest, rule-config digest).  A probe hits only when both
   digests match, so editing a file re-analyzes exactly that file and
   changing the rule configuration (or the catalogue version baked into
   the config digest) re-analyzes everything.

   The codec layer already gives the crash-safety story: frames are
   checksummed, written atomically (temp + rename), and any torn or
   truncated entry surfaces as [Util.Codec.Corrupt] on probe, which we
   treat as a miss and rebuild. *)

type entry = {
  findings : Lint_rules.finding list;
  race_closures : int list; (* head lines of R2-analyzed closures *)
}

let kind = "lint"
let version = 2

let digest s = Digest.to_hex (Digest.string s)

let file_for ~dir ~rel_path =
  Filename.concat dir ("lint-" ^ digest rel_path ^ ".opra")

let ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    (* parents first: _build/lint-cache needs _build *)
    let parent = Filename.dirname dir in
    if parent <> dir && not (Sys.file_exists parent) then
      (try Sys.mkdir parent 0o755 with Sys_error _ -> ());
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_finding e (f : Lint_rules.finding) =
  Util.Codec.write_string e (Lint_rules.rule_id f.rule);
  Util.Codec.write_string e f.file;
  Util.Codec.write_int e f.line;
  Util.Codec.write_int e f.col;
  Util.Codec.write_int e f.anchor;
  Util.Codec.write_string e f.msg;
  Util.Codec.write_bool e f.waived

let read_finding d : Lint_rules.finding =
  let rule_id = Util.Codec.read_string d in
  let rule =
    match Lint_rules.rule_of_id rule_id with
    | Some r -> r
    | None ->
        raise (Util.Codec.Corrupt (Printf.sprintf "unknown rule id %S" rule_id))
  in
  let file = Util.Codec.read_string d in
  let line = Util.Codec.read_int d in
  let col = Util.Codec.read_int d in
  let anchor = Util.Codec.read_int d in
  let msg = Util.Codec.read_string d in
  let waived = Util.Codec.read_bool d in
  { rule; file; line; col; anchor; msg; waived }

let encode ~src_digest ~cfg_digest entry e =
  Util.Codec.write_string e src_digest;
  Util.Codec.write_string e cfg_digest;
  Util.Codec.write_int e (List.length entry.findings);
  List.iter (write_finding e) entry.findings;
  Util.Codec.write_int e (List.length entry.race_closures);
  List.iter (Util.Codec.write_int e) entry.race_closures

let decode ~src_digest ~cfg_digest d =
  let stored_src = Util.Codec.read_string d in
  let stored_cfg = Util.Codec.read_string d in
  if stored_src <> src_digest || stored_cfg <> cfg_digest then None
  else begin
    let n = Util.Codec.read_int d in
    if n < 0 || n > Util.Codec.remaining d then
      raise (Util.Codec.Corrupt "finding count out of range");
    let findings = List.init n (fun _ -> read_finding d) in
    let m = Util.Codec.read_int d in
    if m < 0 || m > Util.Codec.remaining d then
      raise (Util.Codec.Corrupt "closure count out of range");
    let race_closures = List.init m (fun _ -> Util.Codec.read_int d) in
    Util.Codec.expect_end d;
    Some { findings; race_closures }
  end

(* A probe never raises: torn/corrupt/stale entries are misses (and
   removed, so the rebuilt entry replaces them). *)
let load ~dir ~rel_path ~src_digest ~cfg_digest : entry option =
  let file = file_for ~dir ~rel_path in
  match Util.Codec.read_frame_v2 ~kind ~version file with
  | None -> None
  | Some (d, _) -> decode ~src_digest ~cfg_digest d
  | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
  | exception _ ->
      (try Sys.remove file with Sys_error _ -> ());
      None

let store ~dir ~rel_path ~src_digest ~cfg_digest entry =
  ensure_dir dir;
  try
    Util.Codec.write_frame_v2 (file_for ~dir ~rel_path) ~kind ~version
      ~meta:(encode ~src_digest ~cfg_digest entry)
      ~sections:[]
  with Sys_error _ -> ()
