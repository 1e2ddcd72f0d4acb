(* Crash-safe on-disk results registry.

   One completed job = one journal file in the cache dir,
   [result-<Job.result_signature>.opra]: a checksummed Util.Codec frame
   with zero sections whose meta is the job's JSONL record as an encoded
   Util.Json AST.  Records
   are journaled the moment a job completes (atomic temp-file + rename
   per entry), so a batch killed at job N-1 keeps N-1 entries intact —
   there is no index file to corrupt, the directory IS the journal.

   Replay is bitwise: Util.Json.render is a pure function of the AST and
   the codec carries floats as IEEE-754 bit patterns, so a replayed
   record renders byte-identically to the run that journaled it.

   Unlike the artifact Store, the registry is written from inside the
   engine's fan-out (worker domains journal their own completions); a
   single mutex serializes writes and the stats. *)

type stats = { mutable replayed : int; mutable journaled : int; mutable corrupt : int }

type t = {
  dir : string option;
  lock : Mutex.t;
  stats : stats;
}

let kind = "result"

let version = 1

let create ~dir () =
  (match dir with
  | Some d -> if not (Sys.file_exists d) then ( try Sys.mkdir d 0o755 with Sys_error _ -> ())
  | None -> ());
  { dir; lock = Mutex.create (); stats = { replayed = 0; journaled = 0; corrupt = 0 } }

let stats t = t.stats

let path t job =
  match t.dir with
  | None -> None
  | Some dir ->
      Some (Filename.concat dir (Store.file_name ~kind ~key:(Job.result_signature job)))

(* ---- Json AST <-> codec payload ------------------------------------- *)

let tag_null = 0
and tag_bool = 1
and tag_num = 2
and tag_str = 3
and tag_list = 4
and tag_obj = 5

let rec write_json e (j : Util.Json.t) =
  match j with
  | Util.Json.Null -> Util.Codec.write_int e tag_null
  | Util.Json.Bool b ->
      Util.Codec.write_int e tag_bool;
      Util.Codec.write_bool e b
  | Util.Json.Num v ->
      Util.Codec.write_int e tag_num;
      Util.Codec.write_float e v
  | Util.Json.Str s ->
      Util.Codec.write_int e tag_str;
      Util.Codec.write_string e s
  | Util.Json.List items ->
      Util.Codec.write_int e tag_list;
      Util.Codec.write_int e (List.length items);
      List.iter (write_json e) items
  | Util.Json.Obj fields ->
      Util.Codec.write_int e tag_obj;
      Util.Codec.write_int e (List.length fields);
      List.iter
        (fun (k, v) ->
          Util.Codec.write_string e k;
          write_json e v)
        fields

let rec read_json d : Util.Json.t =
  let tag = Util.Codec.read_int d in
  if tag = tag_null then Util.Json.Null
  else if tag = tag_bool then Util.Json.Bool (Util.Codec.read_bool d)
  else if tag = tag_num then Util.Json.Num (Util.Codec.read_float d)
  else if tag = tag_str then Util.Json.Str (Util.Codec.read_string d)
  else if tag = tag_list then begin
    let n = Util.Codec.read_int d in
    if n < 0 || n > Util.Codec.remaining d then
      raise (Util.Codec.Corrupt (Printf.sprintf "json list length %d out of range" n));
    Util.Json.List (List.init n (fun _ -> read_json d))
  end
  else if tag = tag_obj then begin
    let n = Util.Codec.read_int d in
    if n < 0 || n > Util.Codec.remaining d then
      raise (Util.Codec.Corrupt (Printf.sprintf "json object length %d out of range" n));
    Util.Json.Obj
      (List.init n (fun _ ->
           let k = Util.Codec.read_string d in
           (k, read_json d)))
  end
  else raise (Util.Codec.Corrupt (Printf.sprintf "unknown json tag %d" tag))

(* ---- journal operations ---------------------------------------------- *)

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record t job json =
  match path t job with
  | None -> ()
  | Some file ->
      with_lock t (fun () ->
          Util.Codec.write_frame_v2 file ~kind ~version
            ~meta:(fun e -> write_json e json)
            ~sections:[];
          t.stats.journaled <- t.stats.journaled + 1)

let lookup t job =
  match path t job with
  | None -> None
  | Some file -> (
      (* Same contract as the Store: a damaged journal entry —
         truncated mid-record, bit-flipped, stale schema — is never
         trusted.  Drop it and let the engine re-run the job; the
         fresh completion re-journals a good entry. *)
      let drop why =
        t.stats.corrupt <- t.stats.corrupt + 1;
        Util.Log.warnf "registry: dropping corrupt journal entry %s (%s)" file why;
        (try Sys.remove file with Sys_error _ -> ());
        None
      in
      match
        Option.map
          (fun (d, _) ->
            let json = read_json d in
            Util.Codec.expect_end d;
            json)
          (Util.Codec.read_frame_v2 ~kind ~version file)
      with
      | None -> None
      | Some json ->
          t.stats.replayed <- t.stats.replayed + 1;
          Store.touch file;
          Some json
      | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
      | exception e ->
          let why = match e with Util.Codec.Corrupt why -> why | e -> Printexc.to_string e in
          drop why)

let gc t ~keep =
  match t.dir with
  | None -> 0
  | Some dir ->
      let keys = Hashtbl.create (Array.length keep) in
      Array.iter (fun job -> Hashtbl.replace keys (Job.result_signature job) ()) keep;
      Store.gc_dir ~dir ~kind ~keep:(Hashtbl.mem keys)

let sweep t ~max_entries =
  match t.dir with
  | None -> 0
  | Some dir -> (
      match Sys.readdir dir with
      | exception Sys_error _ -> 0
      | files ->
          let prefix = kind ^ "-" and suffix = ".opra" in
          let entries =
            Array.to_list files
            |> List.filter_map (fun f ->
                   if String.starts_with ~prefix f && Filename.check_suffix f suffix then
                     match Unix.stat (Filename.concat dir f) with
                     | exception Unix.Unix_error (_, _, _) -> None
                     | st -> Some (f, st.Unix.st_mtime)
                   else None)
          in
          let excess = List.length entries - max_entries in
          if excess <= 0 then 0
          else begin
            (* Oldest first, name-tie-broken, same clock as Store.evict:
               replay touches mtimes, so recently reused results stay. *)
            let by_age =
              List.sort
                (fun (fa, ta) (fb, tb) ->
                  let c = Float.compare ta tb in
                  if c <> 0 then c else String.compare fa fb)
                entries
            in
            List.iteri
              (fun i (f, _) ->
                if i < excess then
                  try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
              by_age;
            excess
          end)
