(** Binary artifact serializer with versioned headers and checksums.

    The substrate of the on-disk artifact store ({!Opera} scenario
    engine): fixed-width little-endian primitives, bit-exact floats
    (IEEE-754 bit patterns, so cached factors reproduce cold runs
    bitwise), and one self-describing frame format

    [magic | format = 2 | kind | version | length | FNV-1a checksum | payload]

    whose payload holds a small [meta] encoder run (scalars, small
    arrays) and zero or more raw numeric sections.  Every artifact —
    factors, orderings, tensors, AMG hierarchies, journal records, lint
    cache entries — is such a frame; one without bulk arrays simply has
    zero sections.  Corrupt, truncated, foreign-format or
    schema-mismatched files are detected on read — {!Corrupt} — and
    never trusted. *)

exception Corrupt of string
(** Raised by every read path on malformed bytes: truncation, bad magic,
    kind/version mismatch, checksum failure, out-of-range values.
    Callers treat it as "rebuild the artifact". *)

(** {1 Encoding} *)

type encoder

val encoder : ?initial_size:int -> unit -> encoder

val contents : encoder -> string

val write_int : encoder -> int -> unit

val write_i64 : encoder -> int64 -> unit

val write_bool : encoder -> bool -> unit

val write_float : encoder -> float -> unit
(** Exact: the IEEE-754 bit pattern crosses the codec unchanged
    (including NaNs, infinities and signed zeros). *)

val write_string : encoder -> string -> unit
(** Length-prefixed; arbitrary bytes. *)

val write_int_array : encoder -> int array -> unit

val write_float_array : encoder -> float array -> unit

(** {1 Decoding} *)

type decoder

val decoder_of_string : ?pos:int -> ?limit:int -> string -> decoder

val remaining : decoder -> int

val read_int : decoder -> int

val read_i64 : decoder -> int64

val read_bool : decoder -> bool

val read_float : decoder -> float

val read_string : decoder -> string

val read_int_array : decoder -> int array

val read_float_array : decoder -> float array

val expect_end : decoder -> unit
(** Raise {!Corrupt} unless the payload was consumed exactly. *)

(** {1 Checksums} *)

val fnv1a : ?pos:int -> ?len:int -> string -> int64
(** FNV-1a 64-bit hash of a substring (integrity, not cryptography). *)

(** {1 Frames}

    A frame splits its payload into a [meta] encoder run and a table of
    8-aligned raw numeric runs (sections).  On a 64-bit little-endian
    host the runs coincide byte-for-byte with the memory layout of
    [int] / [float64] Bigarrays, so {!read_frame_v2} can return
    zero-copy [Unix.map_file]-backed views over the artifact — a warm
    million-node hierarchy loads without decoding gigabytes.  The
    checksum is verified over the mapped region before any view is
    handed out.  A frame with zero sections, a foreign host, a refused
    mapping or [map = false] takes one streaming read into one buffer
    instead, decoding the sections (if any) portably. *)

type fsection = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type isection = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** What the writer hands to {!frame_v2}, one per section. *)
type section_data =
  | F_arr of float array
  | I_arr of int array
  | F_big of fsection
  | I_big of isection

type sections
(** Decoded (or mapped) section views of one payload. *)

val sections_mapped : sections -> bool
(** [true] when the views are [Unix.map_file]-backed (zero-copy). *)

val section_count : sections -> int

val section_float : sections -> int -> fsection
(** Section by table position; {!Corrupt} on a tag or range mismatch. *)

val section_int : sections -> int -> isection

val frame_v2 :
  kind:string ->
  version:int ->
  meta:(encoder -> unit) ->
  sections:section_data list ->
  string
(** Serialize a frame in memory.  Elements are written little-endian
    (i64 for ints, IEEE-754 bits for floats) regardless of host order,
    so the frame reads back anywhere; mapping is what needs a matching
    host. *)

(** {1 Files} *)

val write_file : string -> string -> unit
(** Write bytes through a same-directory temp file and [rename], so the
    final path never holds a partially written frame.  The file lands
    with mode [0o644] masked by the process umask (not the 0600 of the
    temp file), so readers sharing the cache directory — the sharded
    multi-process batch scenario — can open it. *)

val write_frame_v2 :
  string ->
  kind:string ->
  version:int ->
  meta:(encoder -> unit) ->
  sections:section_data list ->
  unit
(** [write_frame_v2 path ~kind ~version ~meta ~sections] writes exactly
    the bytes of {!frame_v2} to [path]: the meta in bulk, the sections
    streamed through one fixed chunk, the checksum folded as it goes and
    the header rewritten at the end.  The file is published like
    {!write_file} (temp file, mode, rename), and no encoded copy of the
    sections is ever held in memory. *)

val read_frame_v2 :
  ?map:bool -> kind:string -> version:int -> string -> (decoder * sections) option
(** Load a frame: the meta decoder plus section views.  With [map = true]
    (default), a frame with sections on a matching 64-bit little-endian
    host gets mapped views, checksummed over the mapped region;
    otherwise the payload is read once into one buffer, checksummed as
    it lands, and the meta decoder is positioned inside that buffer.
    [None] when the file cannot be opened; {!Corrupt} on any damage —
    an empty or truncated file, a foreign magic or format byte (an old
    v1 frame), a kind or version mismatch, a checksum failure. *)
