(* Binary artifact serializer for the on-disk store.

   Design goals, in order: (1) never trust bytes read back from disk —
   every frame carries a magic, a format version, an artifact kind, an
   artifact version and an FNV-1a checksum of the payload, and every
   primitive read is bounds-checked; (2) bit-exact floats — values cross
   the codec as their IEEE-754 bit patterns, so a factor loaded from a
   warm cache reproduces a cold run bitwise; (3) zero dependencies.

   Wire format of a frame:

     magic   "OPRA"            4 bytes
     format  u8 = 1            codec layout version (this file)
     kind    string            artifact kind tag, e.g. "cholesky"
     version i64le             artifact schema version (caller-owned)
     length  i64le             payload byte count
     check   i64le             FNV-1a 64 of the payload bytes
     payload bytes

   Primitives are fixed-width little-endian (i64 for ints, IEEE bits for
   floats, length-prefixed strings) — simple, portable across OCaml
   versions, and trivially checkable. *)

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
   expose the running form so file readers can checksum each chunk as it
   comes off the descriptor instead of re-walking the whole payload in a
   second pass. *)
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

(* ---- framing -------------------------------------------------------- *)

let magic = "OPRA"

let format_version = 1

let frame ~kind ~version (write : encoder -> unit) =
  let payload = encoder ~initial_size:4096 () in
  write payload;
  let payload = Buffer.contents payload in
  let e = encoder ~initial_size:(String.length payload + 64) () in
  Buffer.add_string e magic;
  Buffer.add_char e (Char.chr format_version);
  write_string e kind;
  write_int e version;
  write_int e (String.length payload);
  write_i64 e (fnv1a payload);
  Buffer.add_string e payload;
  Buffer.contents e

let unframe ~kind ~version (s : string) =
  let d = decoder_of_string s in
  need d (String.length magic + 1);
  let m = String.sub s 0 (String.length magic) in
  if m <> magic then corrupt "bad magic %S (want %S)" m magic;
  d.pos <- String.length magic;
  let fmt = Char.code s.[d.pos] in
  d.pos <- d.pos + 1;
  if fmt <> format_version then corrupt "unsupported codec format %d (want %d)" fmt format_version;
  let k = read_string d in
  if k <> kind then corrupt "artifact kind %S does not match %S" k kind;
  let v = read_int d in
  if v <> version then corrupt "artifact version %d does not match %d" v version;
  let len = read_length d "payload" in
  let check = read_i64 d in
  if remaining d <> len then
    corrupt "payload length %d does not match frame (%d bytes present)" len (remaining d);
  let actual = fnv1a ~pos:d.pos ~len s in
  if not (Int64.equal check actual) then
    corrupt "checksum mismatch (stored %Lx, computed %Lx)" check actual;
  decoder_of_string ~pos:d.pos ~limit:(d.pos + len) s

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

let read_file path =
  (* [None] means only "no file to read" (open failed).  A file that
     opens but is empty or shrinks mid-read is damage, and reports as
     [Corrupt] so callers take their drop-and-rebuild path instead of
     mistaking it for a clean miss. *)
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          if len = 0 then corrupt "artifact file %s is empty" path;
          match really_input_string ic len with
          | s -> Some s
          | exception End_of_file ->
              corrupt "artifact file %s truncated below its %d bytes" path len)

(* ---- streaming frame reads ------------------------------------------

   [read_file] + [unframe] holds the whole file (header + payload) while
   the checksum re-walks it and the decoder reads out of it — a large
   artifact is effectively resident twice during the most
   memory-sensitive moment of a warm start.  [read_frame] reads the
   header fields straight off the channel, then reads the payload into
   its one final buffer in chunks, folding the FNV-1a checksum over each
   chunk as it lands.  One pass, one allocation, header bytes never
   retained. *)

let read_chunk_size = 65536

let input_exactly ic path buf pos len =
  match really_input ic buf pos len with
  | () -> ()
  | exception End_of_file -> corrupt "artifact file %s truncated mid-read" path

(* Header fields shared by both formats: magic, format byte, kind,
   version, payload length, payload checksum.  Returns the format byte;
   the caller dispatches on it. *)
let read_header ic path ~kind ~version =
  let fixed = Bytes.create 5 in
  input_exactly ic path fixed 0 5;
  let m = Bytes.sub_string fixed 0 4 in
  if m <> magic then corrupt "bad magic %S (want %S)" m magic;
  let fmt = Char.code (Bytes.get fixed 4) in
  let word = Bytes.create 8 in
  let read_i64_ch () =
    input_exactly ic path word 0 8;
    Bytes.get_int64_le word 0
  in
  let read_int_ch () =
    let v = read_i64_ch () in
    if Int64.compare v min_int64 < 0 || Int64.compare v max_int64 > 0 then
      corrupt "integer out of native range in %s header" path;
    Int64.to_int v
  in
  let klen = read_int_ch () in
  if klen < 0 || klen > 4096 then corrupt "implausible kind length %d in %s" klen path;
  let kbuf = Bytes.create klen in
  input_exactly ic path kbuf 0 klen;
  let k = Bytes.unsafe_to_string kbuf in
  if k <> kind then corrupt "artifact kind %S does not match %S" k kind;
  let v = read_int_ch () in
  if v <> version then corrupt "artifact version %d does not match %d" v version;
  let len = read_int_ch () in
  if len < 0 then corrupt "negative payload length %d in %s" len path;
  let check = read_i64_ch () in
  (fmt, len, check)

(* Byte count of the frame header for a given kind tag: magic (4) +
   format (1) + kind (8 + klen) + version (8) + length (8) + check (8). *)
let header_bytes ~kind = 37 + String.length kind

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

let read_frame ~kind ~version path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let total = in_channel_length ic in
          if total = 0 then corrupt "artifact file %s is empty" path;
          let fmt, len, check = read_header ic path ~kind ~version in
          if fmt <> format_version then
            corrupt "unsupported codec format %d (want %d)" fmt format_version;
          if total - header_bytes ~kind <> len then
            corrupt "payload length %d does not match frame (%d bytes present)" len
              (total - header_bytes ~kind);
          Some (decoder_of_string (read_payload_checked ic path len check)))

(* ---- v2 frames: section-table payloads, mmap-decodable ---------------

   A v2 frame carries the same header as v1 (format byte 2) but lays its
   payload out so the bulk numeric data never needs an in-memory decode:

     prelude   u8 word_bits | u8 endian (1 = LE) | 6 pad bytes
     nsect     i64le
     table     nsect x { tag i64 (1 = int, 2 = float) | off i64 | count i64 }
     meta      i64le length + encoder bytes (scalars, small arrays)
     sections  raw i64le / IEEE-754le element runs, each padded so its
               FILE offset (header + payload offset) is 8-aligned

   On a 64-bit little-endian host the on-disk element bytes coincide
   with the in-memory layout of an [int]/[float64] Bigarray, so a reader
   can hand out [Unix.map_file]-backed views over the file instead of
   decoding gigabytes; the checksum is verified over the mapped region
   first.  Other hosts (or small files, where setup cost beats page
   mapping) take the copying fallback, which decodes the same bytes
   portably. *)

let format_version_v2 = 2

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

(* Payload layout shared by both writers: the prelude, section table
   and meta as one small string, then each section's payload offset —
   padded so its FILE offset (header + payload offset) is 8-aligned —
   and the total payload length. *)
let v2_layout ~kind ~(meta : encoder -> unit) sections =
  let meta_buf = encoder ~initial_size:1024 () in
  meta meta_buf;
  let meta_str = Buffer.contents meta_buf in
  let nsect = Array.length sections in
  let payload_off = header_bytes ~kind in
  let table_off = 16 in
  let meta_off = table_off + (24 * nsect) in
  let cursor = ref (meta_off + 8 + String.length meta_str) in
  let offs = Array.make nsect 0 in
  Array.iteri
    (fun i s ->
      let pad = (8 - ((payload_off + !cursor) mod 8)) mod 8 in
      offs.(i) <- !cursor + pad;
      cursor := offs.(i) + (8 * section_len s))
    sections;
  let e = encoder ~initial_size:(meta_off + 8 + String.length meta_str) () in
  Buffer.add_char e (Char.chr Sys.int_size);
  Buffer.add_char e (if Sys.big_endian then '\000' else '\001');
  Buffer.add_string e "\000\000\000\000\000\000";
  write_int e nsect;
  Array.iteri
    (fun i s ->
      write_i64 e (section_tag s);
      write_int e offs.(i);
      write_int e (section_len s))
    sections;
  write_string e meta_str;
  (Buffer.contents e, offs, !cursor)

let frame_v2 ~kind ~version ~(meta : encoder -> unit) ~(sections : section_data list) =
  let sections = Array.of_list sections in
  let prefix, offs, payload_len = v2_layout ~kind ~meta sections in
  let e = encoder ~initial_size:(payload_len + 64) () in
  Buffer.add_string e prefix;
  Array.iteri
    (fun i s ->
      for _ = Buffer.length e to offs.(i) - 1 do
        Buffer.add_char e '\000'
      done;
      match s with
      | F_arr a -> Array.iter (fun v -> write_float e v) a
      | I_arr a -> Array.iter (fun v -> write_int e v) a
      | F_big b ->
          for j = 0 to Bigarray.Array1.dim b - 1 do
            write_float e (Bigarray.Array1.unsafe_get b j)
          done
      | I_big b ->
          for j = 0 to Bigarray.Array1.dim b - 1 do
            write_int e (Bigarray.Array1.unsafe_get b j)
          done)
    sections;
  let payload = Buffer.contents e in
  let f = encoder ~initial_size:(String.length payload + 64) () in
  Buffer.add_string f magic;
  Buffer.add_char f (Char.chr format_version_v2);
  write_string f kind;
  write_int f version;
  write_int f (String.length payload);
  write_i64 f (fnv1a payload);
  Buffer.add_string f payload;
  Buffer.contents f

(* Streaming v2 writer: the same bytes as [frame_v2], but the payload
   passes through one fixed chunk on its way to the file, the FNV-1a
   checksum folded over each chunk as it is written.  The header goes
   out with a zero length and checksum, patched in place once the
   payload is done — so a large section set is never resident as a
   second (or fourth) encoded copy. *)
let write_chunk_size = 65536

let write_frame_v2 path ~kind ~version ~(meta : encoder -> unit)
    ~(sections : section_data list) =
  let sections = Array.of_list sections in
  let prefix, offs, _ = v2_layout ~kind ~meta sections in
  write_atomic path (fun oc ->
      let hdr = encoder ~initial_size:(header_bytes ~kind) () in
      Buffer.add_string hdr magic;
      Buffer.add_char hdr (Char.chr format_version_v2);
      write_string hdr kind;
      write_int hdr version;
      let length_pos = Buffer.length hdr in
      write_int hdr 0;
      write_i64 hdr 0L;
      output_string oc (Buffer.contents hdr);
      let chunk = Bytes.create write_chunk_size in
      let fill = ref 0 and written = ref 0 and h = ref fnv1a_init in
      let drain () =
        h := fnv1a_fold !h chunk 0 !fill;
        output oc chunk 0 !fill;
        written := !written + !fill;
        fill := 0
      in
      let put_char c =
        if !fill = write_chunk_size then drain ();
        Bytes.set chunk !fill c;
        incr fill
      in
      (* Room for one 8-byte element: drain a chunk that cannot take it. *)
      let room () = if !fill + 8 > write_chunk_size then drain () in
      String.iter put_char prefix;
      Array.iteri
        (fun i s ->
          while !written + !fill < offs.(i) do
            put_char '\000'
          done;
          match s with
          | F_arr a ->
              Array.iter
                (fun v ->
                  room ();
                  Bytes.set_int64_le chunk !fill (Int64.bits_of_float v);
                  fill := !fill + 8)
                a
          | I_arr a ->
              Array.iter
                (fun v ->
                  room ();
                  Bytes.set_int64_le chunk !fill (Int64.of_int v);
                  fill := !fill + 8)
                a
          | F_big b ->
              for j = 0 to Bigarray.Array1.dim b - 1 do
                room ();
                Bytes.set_int64_le chunk !fill (Int64.bits_of_float (Bigarray.Array1.get b j));
                fill := !fill + 8
              done
          | I_big b ->
              for j = 0 to Bigarray.Array1.dim b - 1 do
                room ();
                Bytes.set_int64_le chunk !fill (Int64.of_int (Bigarray.Array1.get b j));
                fill := !fill + 8
              done)
        sections;
      drain ();
      let tail = Bytes.create 16 in
      Bytes.set_int64_le tail 0 (Int64.of_int !written);
      Bytes.set_int64_le tail 8 !h;
      seek_out oc length_pos;
      output oc tail 0 16)

(* Parse the prelude + section table out of a decoder positioned at the
   start of a v2 payload.  Returns (word_bits, little_endian, table)
   where table entries are (tag, payload offset, element count). *)
let read_v2_table d payload_len =
  need d 16;
  let word_bits = Char.code d.s.[d.pos] in
  let little = d.s.[d.pos + 1] = '\001' in
  d.pos <- d.pos + 8;
  let nsect = read_length d "section table" in
  if nsect > 4096 then corrupt "implausible section count %d" nsect;
  let table =
    Array.init nsect (fun _ ->
        let tag = read_i64 d in
        let off = read_length d "section offset" in
        let count = read_length d "section" in
        if tag <> 1L && tag <> 2L then corrupt "unknown section tag %Ld" tag;
        if off + (8 * count) > payload_len then
          corrupt "section overruns payload (%d + %d elems > %d)" off count payload_len;
        (tag, off, count))
  in
  (word_bits, little, table)

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

let string_of_map m pos len =
  String.init len (fun i -> Bigarray.Array1.unsafe_get m (pos + i))

(* Mapped load: one whole-file char view for validation and the small
   parts, then one typed view per section.  The fd is closed as soon as
   the views exist — mappings survive the descriptor. *)
let map_frame_v2 ~kind ~version path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let total = (Unix.fstat fd).Unix.st_size in
      let whole =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| total |])
      in
      let hdr_len = header_bytes ~kind in
      if total < hdr_len then corrupt "artifact file %s truncated below its header" path;
      (* Validate the header out of the mapping. *)
      let header = string_of_map whole 0 hdr_len in
      let d = decoder_of_string header in
      d.pos <- 4;
      if String.sub header 0 4 <> magic then corrupt "bad magic in %s" path;
      let fmt = Char.code header.[4] in
      d.pos <- 5;
      if fmt <> format_version_v2 then corrupt "format %d is not v2" fmt;
      let k = read_string d in
      if k <> kind then corrupt "artifact kind %S does not match %S" k kind;
      let v = read_int d in
      if v <> version then corrupt "artifact version %d does not match %d" v version;
      let len = read_length d "payload" in
      let check = read_i64 d in
      if total - hdr_len <> len then
        corrupt "payload length %d does not match frame (%d bytes present)" len
          (total - hdr_len);
      (* Checksum over the mapped region before trusting any of it. *)
      let actual = fnv1a_map whole hdr_len len in
      if not (Int64.equal check actual) then
        corrupt "checksum mismatch in %s (stored %Lx, computed %Lx)" path check actual;
      (* Prelude + table, read through a copied prefix (it is tiny). *)
      let prefix_len = Int.min len 65536 in
      let prefix = string_of_map whole hdr_len prefix_len in
      let pd = decoder_of_string prefix in
      let word_bits, little, table = read_v2_table pd len in
      if not (can_map ~word_bits ~little) then None
      else begin
        let meta_len = read_length pd "meta" in
        let meta_off = pd.pos in
        let meta =
          if meta_off + meta_len <= prefix_len then String.sub prefix meta_off meta_len
          else string_of_map whole (hdr_len + meta_off) meta_len
        in
        let entries =
          Array.map
            (fun (tag, off, count) ->
              let pos = hdr_len + off in
              if pos mod 8 <> 0 then corrupt "section misaligned at file offset %d" pos;
              if tag = 2L then
                Floats
                  (Bigarray.array1_of_genarray
                     (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.float64
                        Bigarray.c_layout false [| count |]))
              else
                Ints
                  (Bigarray.array1_of_genarray
                     (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int
                        Bigarray.c_layout false [| count |])))
            table
        in
        Some (decoder_of_string meta, { mapped = true; entries })
      end)

let read_frame_v2 ?(map = true) ~kind ~version path =
  if not (Sys.file_exists path) then None
  else begin
    let mapped =
      if map then
        match map_frame_v2 ~kind ~version path with
        | r -> r
        | exception Unix.Unix_error _ -> None
      else None
    in
    match mapped with
    | Some (meta, s) -> Some (meta, s)
    | None -> (
        (* Copying fallback: stream-read + checksum, then decode runs. *)
        match open_in_bin path with
        | exception Sys_error _ -> None
        | ic ->
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let total = in_channel_length ic in
                if total = 0 then corrupt "artifact file %s is empty" path;
                let fmt, len, check = read_header ic path ~kind ~version in
                if fmt <> format_version_v2 then
                  corrupt "unsupported codec format %d (want %d)" fmt format_version_v2;
                if total - header_bytes ~kind <> len then
                  corrupt "payload length %d does not match frame" len;
                let payload = read_payload_checked ic path len check in
                let pd = decoder_of_string payload in
                let _, _, table = read_v2_table pd len in
                let meta_len = read_length pd "meta" in
                let meta = String.sub payload pd.pos meta_len in
                let entries = copy_sections payload table in
                Some (decoder_of_string meta, { mapped = false; entries })))
  end
