(* Binary artifact serializer for the on-disk store.

   Design goals, in order: (1) never trust bytes read back from disk —
   every frame carries a magic, a format version, an artifact kind, an
   artifact version and an FNV-1a checksum of the payload, and every
   primitive read is bounds-checked; (2) bit-exact floats — values cross
   the codec as their IEEE-754 bit patterns, so a factor loaded from a
   warm cache reproduces a cold run bitwise; (3) zero dependencies.

   The frame layout is described under "framing" below.  Primitives are
   fixed-width little-endian (i64 for ints, IEEE bits for floats,
   length-prefixed strings) — simple, portable across OCaml versions,
   and trivially checkable. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* ---- encoder -------------------------------------------------------- *)

type encoder = Buffer.t

let encoder ?(initial_size = 1024) () = Buffer.create initial_size

let contents (e : encoder) = Buffer.contents e

let write_i64 (e : encoder) (v : int64) = Buffer.add_int64_le e v

let write_int (e : encoder) (v : int) = write_i64 e (Int64.of_int v)

let write_bool (e : encoder) b = Buffer.add_char e (if b then '\001' else '\000')

let write_float (e : encoder) (v : float) = write_i64 e (Int64.bits_of_float v)

let write_string (e : encoder) (s : string) =
  write_int e (String.length s);
  Buffer.add_string e s

let write_int_array (e : encoder) (a : int array) =
  write_int e (Array.length a);
  Array.iter (fun v -> write_int e v) a

let write_float_array (e : encoder) (a : float array) =
  write_int e (Array.length a);
  Array.iter (fun v -> write_float e v) a

(* ---- decoder -------------------------------------------------------- *)

type decoder = { s : string; mutable pos : int; limit : int }

let decoder_of_string ?(pos = 0) ?limit s =
  let limit = match limit with Some l -> l | None -> String.length s in
  if pos < 0 || limit > String.length s || pos > limit then
    invalid_arg "Codec.decoder_of_string: bad bounds";
  { s; pos; limit }

let remaining d = d.limit - d.pos

let need d n =
  if n < 0 || remaining d < n then
    corrupt "truncated artifact: need %d bytes at offset %d, have %d" n d.pos (remaining d)

let read_i64 d =
  need d 8;
  let v = String.get_int64_le d.s d.pos in
  d.pos <- d.pos + 8;
  v

let max_int64 = Int64.of_int max_int

let min_int64 = Int64.of_int min_int

let read_int d =
  let v = read_i64 d in
  if Int64.compare v min_int64 < 0 || Int64.compare v max_int64 > 0 then
    corrupt "integer out of native range at offset %d" (d.pos - 8);
  Int64.to_int v

let read_bool d =
  need d 1;
  let c = d.s.[d.pos] in
  d.pos <- d.pos + 1;
  match c with
  | '\000' -> false
  | '\001' -> true
  | c -> corrupt "bad boolean byte %d at offset %d" (Char.code c) (d.pos - 1)

let read_float d = Int64.float_of_bits (read_i64 d)

let read_length d what =
  let n = read_int d in
  if n < 0 then corrupt "negative %s length %d at offset %d" what n (d.pos - 8);
  n

let read_string d =
  let n = read_length d "string" in
  need d n;
  let s = String.sub d.s d.pos n in
  d.pos <- d.pos + n;
  s

let read_int_array d =
  let n = read_length d "array" in
  (* Each element needs 8 bytes; reject absurd lengths before allocating. *)
  need d (n * 8);
  Array.init n (fun _ -> read_int d)

let read_float_array d =
  let n = read_length d "array" in
  need d (n * 8);
  Array.init n (fun _ -> read_float d)

let expect_end d =
  if remaining d <> 0 then corrupt "trailing garbage: %d bytes left after payload" (remaining d)

(* ---- checksum ------------------------------------------------------- *)

(* FNV-1a 64-bit.  Not cryptographic — it guards against torn writes,
   truncation and bit rot, not adversaries.  [fnv1a_init]/[fnv1a_fold]
   are the running form: the frame reader and writer checksum each chunk
   as it passes instead of re-walking the whole payload in a second
   pass. *)
let fnv1a_init = 0xCBF29CE484222325L

let fnv1a_byte h c = Int64.mul (Int64.logxor h (Int64.of_int c)) 0x100000001B3L

let fnv1a_fold h (b : Bytes.t) pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Codec.fnv1a_fold: chunk out of bounds";
  let h = ref h in
  for i = pos to pos + len - 1 do
    (* opera-lint: unsafe — bounds checked for the whole chunk above *)
    h := fnv1a_byte !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h

let fnv1a ?(pos = 0) ?len (s : string) =
  let len = match len with Some l -> l | None -> String.length s - pos in
  let h = ref fnv1a_init in
  for i = pos to pos + len - 1 do
    h := fnv1a_byte !h (Char.code s.[i])
  done;
  !h

(* ---- framing --------------------------------------------------------

   One frame format.  The header is

     magic   "OPRA"            4 bytes
     format  u8 = 2            codec layout version (this file)
     kind    string            artifact kind tag, e.g. "chol"
     version i64le             artifact schema version (caller-owned)
     length  i64le             payload byte count
     check   i64le             FNV-1a 64 of the payload bytes

   and the payload splits scalar meta from bulk numeric runs, so the runs
   never need an in-memory decode:

     prelude   u8 word_bits | u8 endian (1 = LE) | 6 pad bytes
     nsect     i64le
     table     nsect x { tag i64 (1 = int, 2 = float) | off i64 | count i64 }
     meta      i64le length + encoder bytes (scalars, small arrays)
     sections  raw i64le / IEEE-754le element runs, each padded so its
               FILE offset (header + payload offset) is 8-aligned

   A value with no bulk arrays (a Cholesky factor, a journal record) is
   a frame with zero sections: its whole content is the meta.  On a
   64-bit little-endian host the section bytes coincide with the
   in-memory layout of an [int]/[float64] Bigarray, so a reader can hand
   out [Unix.map_file]-backed views over the file instead of decoding
   gigabytes; the checksum is verified over the mapped region first.
   Other hosts, and frames with nothing to map, take one streaming read
   into one buffer. *)

let magic = "OPRA"

let format_version = 2

(* Byte count of the frame header for a given kind tag: magic (4) +
   format (1) + kind (8 + klen) + version (8) + length (8) + check (8). *)
let header_bytes ~kind = 37 + String.length kind

let header ~kind ~version ~len ~check =
  let e = encoder ~initial_size:(header_bytes ~kind) () in
  Buffer.add_string e magic;
  Buffer.add_char e (Char.chr format_version);
  write_string e kind;
  write_int e version;
  write_int e len;
  write_i64 e check;
  Buffer.contents e

(* Validate a header read through [d] against the expected kind and
   version; returns the payload length and checksum, [d] left on the
   payload. *)
let check_header d ~kind ~version =
  need d 5;
  let m = String.sub d.s d.pos 4 in
  if m <> magic then corrupt "bad magic %S (want %S)" m magic;
  let fmt = Char.code d.s.[d.pos + 4] in
  if fmt <> format_version then corrupt "unsupported codec format %d (want %d)" fmt format_version;
  d.pos <- d.pos + 5;
  let k = read_string d in
  if k <> kind then corrupt "artifact kind %S does not match %S" k kind;
  let v = read_int d in
  if v <> version then corrupt "artifact version %d does not match %d" v version;
  let len = read_length d "payload" in
  let check = read_i64 d in
  (len, check)

type fsection = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type isection = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type section_data =
  | F_arr of float array
  | I_arr of int array
  | F_big of fsection
  | I_big of isection

type section = Ints of isection | Floats of fsection

type sections = { mapped : bool; entries : section array }

let sections_mapped s = s.mapped

let section_count s = Array.length s.entries

let section_float s i =
  if i < 0 || i >= Array.length s.entries then
    corrupt "float section %d out of range (have %d)" i (Array.length s.entries);
  match s.entries.(i) with
  | Floats f -> f
  | Ints _ -> corrupt "section %d holds ints, not floats" i

let section_int s i =
  if i < 0 || i >= Array.length s.entries then
    corrupt "int section %d out of range (have %d)" i (Array.length s.entries);
  match s.entries.(i) with
  | Ints a -> a
  | Floats _ -> corrupt "section %d holds floats, not ints" i

let section_len = function
  | F_arr a -> Array.length a
  | I_arr a -> Array.length a
  | F_big b -> Bigarray.Array1.dim b
  | I_big b -> Bigarray.Array1.dim b

let section_tag = function F_arr _ | F_big _ -> 2L | I_arr _ | I_big _ -> 1L

let prelude_bytes = 16

(* ---- writing --------------------------------------------------------- *)

let write_chunk_size = 65536

(* Push a frame's payload through [out] — the prelude, table and meta as
   two bulk runs, the sections through one fixed chunk — folding the
   FNV-1a checksum over every run as it goes.  Returns the payload
   length and checksum, which the caller puts in the header. *)
let emit_payload ~kind ~(meta : encoder -> unit) sections
    (out : Bytes.t -> int -> int -> unit) =
  let meta_buf = encoder ~initial_size:1024 () in
  meta meta_buf;
  let meta = Buffer.to_bytes meta_buf in
  let nsect = Array.length sections in
  let payload_off = header_bytes ~kind in
  let meta_off = prelude_bytes + (24 * nsect) + 8 in
  let cursor = ref (meta_off + Bytes.length meta) in
  let offs = Array.make nsect 0 in
  Array.iteri
    (fun i s ->
      let pad = (8 - ((payload_off + !cursor) mod 8)) mod 8 in
      offs.(i) <- !cursor + pad;
      cursor := offs.(i) + (8 * section_len s))
    sections;
  let pre = encoder ~initial_size:meta_off () in
  Buffer.add_char pre (Char.chr Sys.int_size);
  Buffer.add_char pre (if Sys.big_endian then '\000' else '\001');
  Buffer.add_string pre "\000\000\000\000\000\000";
  write_int pre nsect;
  Array.iteri
    (fun i s ->
      write_i64 pre (section_tag s);
      write_int pre offs.(i);
      write_int pre (section_len s))
    sections;
  write_int pre (Bytes.length meta);
  let h = ref fnv1a_init and written = ref 0 in
  let put b len =
    h := fnv1a_fold !h b 0 len;
    out b 0 len;
    written := !written + len
  in
  put (Buffer.to_bytes pre) meta_off;
  put meta (Bytes.length meta);
  if nsect > 0 then begin
    let chunk = Bytes.create write_chunk_size and fill = ref 0 in
    (* Room for [n] more bytes: drain a chunk that cannot take them. *)
    let room n =
      if !fill + n > write_chunk_size then begin
        put chunk !fill;
        fill := 0
      end
    in
    (* Each element is set in place (no helper taking an [int64]), so
       the loops do not box. *)
    Array.iteri
      (fun i s ->
        let pad = offs.(i) - (!written + !fill) in
        room pad;
        Bytes.fill chunk !fill pad '\000';
        fill := !fill + pad;
        match s with
        | F_arr a ->
            Array.iter
              (fun v ->
                room 8;
                Bytes.set_int64_le chunk !fill (Int64.bits_of_float v);
                fill := !fill + 8)
              a
        | I_arr a ->
            Array.iter
              (fun v ->
                room 8;
                Bytes.set_int64_le chunk !fill (Int64.of_int v);
                fill := !fill + 8)
              a
        | F_big b ->
            for j = 0 to Bigarray.Array1.dim b - 1 do
              room 8;
              Bytes.set_int64_le chunk !fill (Int64.bits_of_float (Bigarray.Array1.get b j));
              fill := !fill + 8
            done
        | I_big b ->
            for j = 0 to Bigarray.Array1.dim b - 1 do
              room 8;
              Bytes.set_int64_le chunk !fill (Int64.of_int (Bigarray.Array1.get b j));
              fill := !fill + 8
            done)
      sections;
    put chunk !fill
  end;
  (!written, !h)

let frame_v2 ~kind ~version ~meta ~sections =
  let payload = Buffer.create 4096 in
  let len, check =
    emit_payload ~kind ~meta (Array.of_list sections) (Buffer.add_subbytes payload)
  in
  header ~kind ~version ~len ~check ^ Buffer.contents payload

(* ---- files ---------------------------------------------------------- *)

(* Read once at module init (single-domain by construction): umask can
   only be queried by setting it, which would race once domains fan
   out. *)
let process_umask =
  let m = Unix.umask 0o022 in
  ignore (Unix.umask m);
  m

(* Atomic-ish: [write] fills a sibling temp file, which is then renamed
   over the target, so a crash mid-write never leaves a half-frame under
   the final name (the checksum would catch it anyway; this avoids even
   transient corruption being visible). *)
let write_atomic path (write : out_channel -> unit) =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "codec" ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         write oc;
         (* flush errors must propagate, not be swallowed by the
            finally's noerr close; closing twice is harmless *)
         close_out oc)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* temp_file creates mode 0600; artifacts are shared-cache currency
     (other users/hosts mount the dir read-only), so widen to the usual
     0644 modulo the process umask before publishing the name. *)
  (try Unix.chmod tmp (0o644 land lnot process_umask) with Unix.Unix_error _ -> ());
  Sys.rename tmp path

let write_file path (data : string) = write_atomic path (fun oc -> output_string oc data)

(* The header goes out with a zero length and checksum and is rewritten
   once the payload is done, so no encoded copy of the sections is ever
   held in memory. *)
let write_frame_v2 path ~kind ~version ~meta ~sections =
  write_atomic path (fun oc ->
      output_string oc (header ~kind ~version ~len:0 ~check:0L);
      let len, check = emit_payload ~kind ~meta (Array.of_list sections) (output oc) in
      seek_out oc 0;
      output_string oc (header ~kind ~version ~len ~check))

(* ---- reading --------------------------------------------------------- *)

let read_chunk_size = 65536

let input_exactly ic path buf pos len =
  match really_input ic buf pos len with
  | () -> ()
  | exception End_of_file -> corrupt "artifact file %s truncated mid-read" path

let input_string_exactly ic path len =
  let b = Bytes.create len in
  input_exactly ic path b 0 len;
  Bytes.unsafe_to_string b

(* Read the payload into its one final buffer in chunks, folding the
   FNV-1a checksum over each chunk as it lands: one pass, and the
   artifact is never resident twice. *)
let read_payload_checked ic path len check =
  let payload = Bytes.create len in
  let h = ref fnv1a_init in
  let pos = ref 0 in
  while !pos < len do
    let n = Int.min read_chunk_size (len - !pos) in
    input_exactly ic path payload !pos n;
    h := fnv1a_fold !h payload !pos n;
    pos := !pos + n
  done;
  if not (Int64.equal check !h) then
    corrupt "checksum mismatch in %s (stored %Lx, computed %Lx)" path check !h;
  Bytes.unsafe_to_string payload

(* Prelude of a decoder positioned at the start of a payload:
   (word_bits, little_endian, section count). *)
let read_prelude d =
  need d prelude_bytes;
  let word_bits = Char.code d.s.[d.pos] in
  let little = d.s.[d.pos + 1] = '\001' in
  d.pos <- d.pos + 8;
  let nsect = read_length d "section table" in
  if nsect > 4096 then corrupt "implausible section count %d" nsect;
  (word_bits, little, nsect)

(* Prelude + section table; entries are (tag, payload offset, count). *)
let read_table d payload_len =
  let _, _, nsect = read_prelude d in
  Array.init nsect (fun _ ->
      let tag = read_i64 d in
      let off = read_length d "section offset" in
      let count = read_length d "section" in
      if tag <> 1L && tag <> 2L then corrupt "unknown section tag %Ld" tag;
      if off + (8 * count) > payload_len then
        corrupt "section overruns payload (%d + %d elems > %d)" off count payload_len;
      (tag, off, count))

(* Copying decode of the section runs — the portable fallback. *)
let copy_sections (payload : string) table =
  Array.map
    (fun (tag, off, count) ->
      if tag = 2L then begin
        let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout count in
        for j = 0 to count - 1 do
          Bigarray.Array1.unsafe_set b j
            (Int64.float_of_bits (String.get_int64_le payload (off + (8 * j))))
        done;
        Floats b
      end
      else begin
        let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout count in
        for j = 0 to count - 1 do
          let v = String.get_int64_le payload (off + (8 * j)) in
          if Int64.compare v min_int64 < 0 || Int64.compare v max_int64 > 0 then
            corrupt "int section element out of native range at offset %d" (off + (8 * j));
          Bigarray.Array1.unsafe_set b j (Int64.to_int v)
        done;
        Ints b
      end)
    table

(* The mapped layout only coincides with the wire bytes on a 64-bit
   little-endian host reading a frame written by one. *)
let can_map ~word_bits ~little =
  little && (not Sys.big_endian) && word_bits = Sys.int_size && Sys.int_size = 63

let fnv1a_map (m : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t)
    pos len =
  let h = ref fnv1a_init in
  for i = pos to pos + len - 1 do
    h := fnv1a_byte !h (Char.code (Bigarray.Array1.unsafe_get m i))
  done;
  !h

(* Mapped load: the table and meta are small and come off the channel;
   one whole-file char view carries the checksum, then one typed view
   per section.  Mappings survive the descriptor's close. *)
let map_sections ic path ~total ~hdr_len ~len ~check ~nsect =
  let pre_len = prelude_bytes + (24 * nsect) + 8 in
  if pre_len > len then corrupt "section table overruns the payload of %s" path;
  seek_in ic hdr_len;
  let pd = decoder_of_string (input_string_exactly ic path pre_len) in
  let table = read_table pd len in
  let meta_len = read_length pd "meta" in
  if pre_len + meta_len > len then corrupt "meta overruns the payload of %s" path;
  let meta = decoder_of_string (input_string_exactly ic path meta_len) in
  let fd = Unix.descr_of_in_channel ic in
  let whole =
    Bigarray.array1_of_genarray (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| total |])
  in
  (* Checksum over the mapped region before trusting any of it. *)
  let actual = fnv1a_map whole hdr_len len in
  if not (Int64.equal check actual) then
    corrupt "checksum mismatch in %s (stored %Lx, computed %Lx)" path check actual;
  let entries =
    Array.map
      (fun (tag, off, count) ->
        let pos = hdr_len + off in
        if pos mod 8 <> 0 then corrupt "section misaligned at file offset %d" pos;
        if tag = 2L then
          Floats
            (Bigarray.array1_of_genarray
               (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.float64 Bigarray.c_layout false
                  [| count |]))
        else
          Ints
            (Bigarray.array1_of_genarray
               (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int Bigarray.c_layout false
                  [| count |])))
      table
  in
  (meta, { mapped = true; entries })

let read_frame_v2 ?(map = true) ~kind ~version path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let total = in_channel_length ic in
          if total = 0 then corrupt "artifact file %s is empty" path;
          let hdr_len = header_bytes ~kind in
          if total < hdr_len + prelude_bytes then
            corrupt "artifact file %s truncated below its header" path;
          let hd = decoder_of_string (input_string_exactly ic path (hdr_len + prelude_bytes)) in
          let len, check = check_header hd ~kind ~version in
          if total - hdr_len <> len then
            corrupt "payload length %d does not match frame (%d bytes present)" len
              (total - hdr_len);
          let word_bits, little, nsect = read_prelude hd in
          let mapped =
            if map && nsect > 0 && can_map ~word_bits ~little then
              match map_sections ic path ~total ~hdr_len ~len ~check ~nsect with
              | r -> Some r
              | exception Unix.Unix_error _ -> None
            else None
          in
          match mapped with
          | Some _ -> mapped
          | None ->
              seek_in ic hdr_len;
              let payload = read_payload_checked ic path len check in
              let pd = decoder_of_string payload in
              let table = read_table pd len in
              let meta_len = read_length pd "meta" in
              need pd meta_len;
              let meta = decoder_of_string ~pos:pd.pos ~limit:(pd.pos + meta_len) payload in
              Some (meta, { mapped = false; entries = copy_sections payload table }))
