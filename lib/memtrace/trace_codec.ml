exception Error of string

let err path fmt =
  Printf.ksprintf (fun s -> raise (Error ("Trace_codec: " ^ path ^ ": " ^ s))) fmt

let magic = "NVSCAVT1"
let eof_magic = "NVSCAVTE"
let version = 2
let min_version = 1

type meta = {
  app : string;
  description : string;
  input_description : string;
  paper_footprint_mb : float;
  scale : float;
  iterations : int;
  batch_capacity : int;
}

let fingerprint m =
  Printf.sprintf "%s|scale=%g|iterations=%d" m.app m.scale m.iterations

type summary = {
  refs : int;
  reads : int;
  writes : int;
  chunks : int;
  bytes : int;
  digest : string;
}

(* Registry counters shared by every writer/reader in the process: the
   profile summary reports record/replay volume across a whole sweep. *)
let m_record_refs = Nvsc_obs.Metrics.counter "nvt.record.refs"
let m_record_bytes = Nvsc_obs.Metrics.counter "nvt.record.bytes"
let m_replay_refs = Nvsc_obs.Metrics.counter "nvt.replay.refs"
let m_replay_chunks = Nvsc_obs.Metrics.counter "nvt.replay.chunks"

(* --- primitive encoders ------------------------------------------------- *)

(* The varint loops recurse at top level, passing the buffer or decoder
   along: a local [let rec go] would capture it in a closure allocated on
   every call, i.e. on every encoded or decoded field. *)
let rec put_leb128 buf n =
  if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    put_leb128 buf (n lsr 7)
  end

let put_varint buf n =
  (* unsigned LEB128; negative values must go through [zigzag] first *)
  if n < 0 then invalid_arg "Trace_codec: negative varint";
  put_leb128 buf n

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))

let put_str buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let phase_code = function
  | Mem_object.Pre -> 0
  | Mem_object.Post -> 1
  | Mem_object.Main i -> 1 + i

let phase_of_code path = function
  | 0 -> Mem_object.Pre
  | 1 -> Mem_object.Post
  | n when n >= 2 -> Mem_object.Main (n - 1)
  | n -> err path "corrupt phase code %d" n

let kind_code = function
  | Layout.Global -> 0
  | Layout.Heap -> 1
  | Layout.Stack -> 2

let kind_of_code path = function
  | 0 -> Layout.Global
  | 1 -> Layout.Heap
  | 2 -> Layout.Stack
  | n -> err path "corrupt object kind %d" n

let put_obj buf (o : Mem_object.t) =
  put_varint buf o.id;
  put_str buf o.name;
  Buffer.add_char buf (Char.chr (kind_code o.kind));
  put_varint buf o.base;
  put_varint buf o.size;
  put_str buf o.signature;
  put_varint buf (List.length o.callstack);
  List.iter (put_str buf) o.callstack;
  put_varint buf (phase_code o.alloc_phase);
  Buffer.add_char buf (if o.live then '\001' else '\000')

let put_meta buf (m : meta) ~chunk_capacity =
  put_str buf m.app;
  put_str buf m.description;
  put_str buf m.input_description;
  put_f64 buf m.paper_footprint_mb;
  put_f64 buf m.scale;
  put_varint buf m.iterations;
  put_varint buf m.batch_capacity;
  put_varint buf chunk_capacity

(* --- primitive decoders ------------------------------------------------- *)

(* Decoding works over the first [lim] bytes of an in-memory buffer (one
   chunk / header / trailer payload at a time — each bounded by the bytes
   the file holds, not by a length it merely claims); any overrun is a
   truncation of [what] in [path]. *)
type dec = {
  s : Bytes.t;
  mutable pos : int;
  lim : int;
  d_path : string;
  what : string;
}

let dec s ~len ~path ~what = { s; pos = 0; lim = len; d_path = path; what }

let get_byte d =
  if d.pos >= d.lim then err d.d_path "truncated %s" d.what;
  let b = Char.code (Bytes.unsafe_get d.s d.pos) in
  d.pos <- d.pos + 1;
  b

let rec get_leb128 d shift acc =
  let b = get_byte d in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else get_leb128 d (shift + 7) acc

let get_varint d = get_leb128 d 0 0

(* A count of items that each take at least one more byte, so a claim
   beyond the bytes left is a truncation, never an allocation. *)
let get_count d =
  let n = get_varint d in
  if n < 0 || n > d.lim - d.pos then err d.d_path "truncated %s" d.what;
  n

let get_str d =
  let n = get_count d in
  let s = Bytes.sub_string d.s d.pos n in
  d.pos <- d.pos + n;
  s

let get_f64 d =
  if d.lim - d.pos < 8 then err d.d_path "truncated %s" d.what;
  let f = Int64.float_of_bits (Bytes.get_int64_le d.s d.pos) in
  d.pos <- d.pos + 8;
  f

let get_obj d =
  let id = get_varint d in
  let name = get_str d in
  let kind = kind_of_code d.d_path (get_byte d) in
  let base = get_varint d in
  let size = get_varint d in
  if size <= 0 then err d.d_path "corrupt %s (object size %d)" d.what size;
  let signature = get_str d in
  let callstack = List.init (get_count d) (fun _ -> get_str d) in
  let alloc_phase = phase_of_code d.d_path (get_varint d) in
  let live = get_byte d <> 0 in
  let o =
    Mem_object.make ~id ~name ~kind ~base ~size ~signature ~callstack
      ~alloc_phase ()
  in
  o.Mem_object.live <- live;
  o

let get_meta d =
  let app = get_str d in
  let description = get_str d in
  let input_description = get_str d in
  let paper_footprint_mb = get_f64 d in
  let scale = get_f64 d in
  let iterations = get_varint d in
  let batch_capacity = get_varint d in
  (* the writer's chunk capacity: informational, nothing is sized from it *)
  ignore (get_varint d : int);
  {
    app;
    description;
    input_description;
    paper_footprint_mb;
    scale;
    iterations;
    batch_capacity;
  }

(* Fixed-width channel reads (the only decoding not done over a payload
   buffer: the file skeleton around the digested payloads). *)
let really_read ic path n =
  let b = Bytes.create n in
  (try really_input ic b 0 n with End_of_file -> err path "truncated file");
  Bytes.unsafe_to_string b

let read_u16le ic path =
  let s = really_read ic path 2 in
  Char.code s.[0] lor (Char.code s.[1] lsl 8)

let read_u32le ic path =
  let s = really_read ic path 4 in
  Char.code s.[0]
  lor (Char.code s.[1] lsl 8)
  lor (Char.code s.[2] lsl 16)
  lor (Char.code s.[3] lsl 24)

(* All fixed-width fields are explicitly little-endian, independent of
   the host: the on-disk format must not change with the endianness or
   word size of the recording machine (the golden-fixture test pins the
   exact bytes). *)
let u16le_bytes n =
  let b = Bytes.create 2 in
  Bytes.set_uint8 b 0 (n land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 8) land 0xff);
  Bytes.unsafe_to_string b

let u32le_bytes n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 (n land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 3 ((n lsr 24) land 0xff);
  Bytes.unsafe_to_string b

(* --- token tags --------------------------------------------------------- *)

let tag_phase = 0
let tag_instr = 1
let tag_refs = 2
let tag_persist = 3 (* v2+ only *)

(* persist sub-codes (the byte after a [tag_persist]) *)
let psub_epoch_begin = 0
let psub_epoch_commit = 1
let psub_flush = 2
let psub_fence = 3
let psub_declare = 4

(* --- writer ------------------------------------------------------------- *)

module Writer = struct
  type t = {
    w_path : string;
    oc : out_channel;
    w_version : int;
    chunk_capacity : int;
    resolve : int -> Mem_object.t option;
    seen : (int, unit) Hashtbl.t;  (* ids already tabled in some chunk *)
    obj_buf : Buffer.t;  (* this chunk's attribution table *)
    mutable obj_count : int;
    tok_buf : Buffer.t;  (* this chunk's sealed tokens *)
    run_buf : Buffer.t;  (* the open REFS run *)
    mutable run_count : int;
    mutable prev_addr : int;
    mutable prev_id : int;
    mutable chunk_refs : int;
    mutable index_rev : (int * int * string) list;  (* offset, refs, md5 *)
    mutable t_refs : int;
    mutable t_reads : int;
    mutable t_writes : int;
    header_md5 : string;
    mutable closed : bool;
  }

  let create ?(version = version) ?(chunk_capacity = Sink.default_capacity)
      ?(resolve = fun _ -> None) ~path ~meta () =
    if chunk_capacity <= 0 then
      invalid_arg "Trace_codec.Writer.create: chunk_capacity";
    if version < min_version || version > 2 then
      invalid_arg "Trace_codec.Writer.create: version";
    let oc = open_out_bin path in
    let hdr = Buffer.create 256 in
    put_meta hdr meta ~chunk_capacity;
    let header_payload = Buffer.contents hdr in
    output_string oc magic;
    output_string oc (u16le_bytes version);
    output_string oc (u32le_bytes (String.length header_payload));
    output_string oc header_payload;
    {
      w_path = path;
      oc;
      w_version = version;
      chunk_capacity;
      resolve;
      seen = Hashtbl.create 256;
      obj_buf = Buffer.create 1024;
      obj_count = 0;
      tok_buf = Buffer.create (chunk_capacity * 4);
      run_buf = Buffer.create (chunk_capacity * 4);
      run_count = 0;
      prev_addr = 0;
      prev_id = 0;
      chunk_refs = 0;
      index_rev = [];
      t_refs = 0;
      t_reads = 0;
      t_writes = 0;
      header_md5 = Digest.string header_payload;
      closed = false;
    }

  let flush_run w =
    if w.run_count > 0 then begin
      Buffer.add_char w.tok_buf (Char.chr tag_refs);
      put_varint w.tok_buf w.run_count;
      Buffer.add_buffer w.tok_buf w.run_buf;
      Buffer.clear w.run_buf;
      w.run_count <- 0
    end

  let seal_chunk w =
    flush_run w;
    if w.chunk_refs > 0 || Buffer.length w.tok_buf > 0 then begin
      let payload = Buffer.create (Buffer.length w.tok_buf + 64) in
      put_varint payload w.chunk_refs;
      put_varint payload w.obj_count;
      Buffer.add_buffer payload w.obj_buf;
      Buffer.add_buffer payload w.tok_buf;
      let payload = Buffer.contents payload in
      let md5 = Digest.string payload in
      let offset = pos_out w.oc in
      output_char w.oc 'C';
      output_string w.oc (u32le_bytes (String.length payload));
      output_string w.oc md5;
      output_string w.oc payload;
      w.index_rev <- (offset, w.chunk_refs, md5) :: w.index_rev;
      Buffer.clear w.obj_buf;
      Buffer.clear w.tok_buf;
      w.obj_count <- 0;
      w.chunk_refs <- 0;
      w.prev_addr <- 0;
      w.prev_id <- 0
    end

  let add_ref w ~addr ~size ~op ~obj_id =
    if obj_id >= 0 && not (Hashtbl.mem w.seen obj_id) then begin
      Hashtbl.add w.seen obj_id ();
      match w.resolve obj_id with
      | Some o ->
        put_obj w.obj_buf o;
        w.obj_count <- w.obj_count + 1
      | None -> ()
    end;
    let is_write = match op with Access.Read -> false | Access.Write -> true in
    put_varint w.run_buf ((size lsl 1) lor Bool.to_int is_write);
    put_varint w.run_buf (zigzag (addr - w.prev_addr));
    put_varint w.run_buf (zigzag (obj_id - w.prev_id));
    w.prev_addr <- addr;
    w.prev_id <- obj_id;
    w.run_count <- w.run_count + 1;
    w.chunk_refs <- w.chunk_refs + 1;
    w.t_refs <- w.t_refs + 1;
    if is_write then w.t_writes <- w.t_writes + 1
    else w.t_reads <- w.t_reads + 1;
    if w.chunk_refs >= w.chunk_capacity then seal_chunk w

  let add_instr w n =
    if n <= 0 then invalid_arg "Trace_codec.Writer.add_instr: count";
    flush_run w;
    Buffer.add_char w.tok_buf (Char.chr tag_instr);
    put_varint w.tok_buf n

  let add_phase w p =
    flush_run w;
    Buffer.add_char w.tok_buf (Char.chr tag_phase);
    put_varint w.tok_buf (phase_code p)

  let add_persist w (p : Persist.t) =
    if w.w_version < 2 then
      err w.w_path "persist events need NVT version >= 2 (writer is v%d)"
        w.w_version;
    flush_run w;
    Buffer.add_char w.tok_buf (Char.chr tag_persist);
    let epoch sub label checkpoint =
      Buffer.add_char w.tok_buf (Char.chr sub);
      Buffer.add_char w.tok_buf (if checkpoint then '\001' else '\000');
      put_str w.tok_buf label
    in
    match p with
    | Persist.Epoch_begin { label; checkpoint } ->
      epoch psub_epoch_begin label checkpoint
    | Persist.Epoch_commit { label; checkpoint } ->
      epoch psub_epoch_commit label checkpoint
    | Persist.Flush { obj_id; off; len } ->
      Buffer.add_char w.tok_buf (Char.chr psub_flush);
      put_varint w.tok_buf obj_id;
      put_varint w.tok_buf off;
      put_varint w.tok_buf len
    | Persist.Fence -> Buffer.add_char w.tok_buf (Char.chr psub_fence)
    | Persist.Declare { obj_id } ->
      Buffer.add_char w.tok_buf (Char.chr psub_declare);
      put_varint w.tok_buf obj_id

  let finish w ?(objects = []) ?(stack_objects = []) () =
    seal_chunk w;
    let index = List.rev w.index_rev in
    let trace_digest =
      Digest.string
        (String.concat "" (w.header_md5 :: List.map (fun (_, _, d) -> d) index))
    in
    let payload = Buffer.create 4096 in
    put_varint payload w.t_refs;
    put_varint payload w.t_reads;
    put_varint payload w.t_writes;
    put_varint payload (List.length objects);
    List.iter (put_obj payload) objects;
    put_varint payload (List.length stack_objects);
    List.iter (put_obj payload) stack_objects;
    put_varint payload (List.length index);
    List.iter
      (fun (offset, refs, md5) ->
        put_varint payload offset;
        put_varint payload refs;
        Buffer.add_string payload md5)
      index;
    Buffer.add_string payload trace_digest;
    let payload = Buffer.contents payload in
    let trailer_offset = pos_out w.oc in
    output_char w.oc 'T';
    output_string w.oc (u32le_bytes (String.length payload));
    output_string w.oc (Digest.string payload);
    output_string w.oc payload;
    let eof = Buffer.create 16 in
    Buffer.add_int64_le eof (Int64.of_int trailer_offset);
    Buffer.add_string eof eof_magic;
    Buffer.output_buffer w.oc eof;
    let bytes = pos_out w.oc in
    close_out w.oc;
    w.closed <- true;
    Nvsc_obs.Metrics.Counter.add m_record_refs w.t_refs;
    Nvsc_obs.Metrics.Counter.add m_record_bytes bytes;
    {
      refs = w.t_refs;
      reads = w.t_reads;
      writes = w.t_writes;
      chunks = List.length index;
      bytes;
      digest = Digest.to_hex trace_digest;
    }

  let abort w = if not w.closed then close_out_noerr w.oc
end

(* --- reader ------------------------------------------------------------- *)

type chunk_info = { c_offset : int; c_refs : int; c_md5 : string }

(* Chunk [k] spans from its offset to the next chunk's, or to the trailer:
   a 21-byte frame ('C', u32 length, MD5) and then its payload. *)
let chunk_end index ~trailer_offset k =
  if k + 1 < Array.length index then index.(k + 1).c_offset else trailer_offset

module Reader = struct
  type t = {
    r_path : string;
    ic : in_channel;
    r_version : int;
    r_meta : meta;
    r_refs : int;
    r_reads : int;
    r_writes : int;
    r_objects : Mem_object.t list;
    r_stack : Mem_object.t list;
    index : chunk_info array;
    r_digest : string;  (* hex *)
    data_start : int;
    trailer_offset : int;
    max_payload : int;  (* the largest chunk span, less its frame *)
  }

  let open_ path =
    let ic = try open_in_bin path with Sys_error m -> raise (Error m) in
    match
      let len = in_channel_length ic in
      if len < String.length magic + 2 + 4 + 16 then err path "truncated file";
      let m = really_read ic path (String.length magic) in
      if m <> magic then err path "bad magic (not an NVT trace)";
      let v = read_u16le ic path in
      if v < min_version || v > version then
        err path "unsupported NVT version %d" v;
      let hlen = read_u32le ic path in
      if 14 + hlen + 16 > len then err path "truncated file";
      let header_payload = really_read ic path hlen in
      let r_meta =
        get_meta
          (dec (Bytes.unsafe_of_string header_payload) ~len:hlen ~path
             ~what:"header")
      in
      seek_in ic (len - 16);
      let eof = really_read ic path 16 in
      if String.sub eof 8 8 <> eof_magic then
        err path "truncated file (missing trailer)";
      let trailer_offset =
        let rec go i acc =
          if i >= 8 then acc
          else
            go (i + 1)
              Int64.(logor acc (shift_left (of_int (Char.code eof.[i])) (8 * i)))
        in
        Int64.to_int (go 0 0L)
      in
      if trailer_offset < 14 + hlen || trailer_offset >= len - 16 then
        err path "corrupt trailer offset";
      seek_in ic trailer_offset;
      if really_read ic path 1 <> "T" then err path "corrupt trailer";
      let tlen = read_u32le ic path in
      let tmd5 = really_read ic path 16 in
      if trailer_offset + 1 + 4 + 16 + tlen > len - 16 then
        err path "truncated file";
      let payload = really_read ic path tlen in
      if Digest.string payload <> tmd5 then
        err path "corrupt trailer (digest mismatch)";
      let d =
        dec (Bytes.unsafe_of_string payload) ~len:tlen ~path ~what:"trailer"
      in
      (* Counts are checked against the bytes that must hold their
         entries before anything is sized from them: an object takes at
         least one byte, an index entry at least 18. *)
      let get_table_count what ~entry_bytes =
        let n = get_varint d in
        if n < 0 || n > (d.lim - d.pos) / entry_bytes then
          err path "corrupt trailer (%s count %d)" what n;
        n
      in
      let get_md5 () =
        if d.pos + 16 > d.lim then err path "truncated trailer";
        let s = Bytes.sub_string d.s d.pos 16 in
        d.pos <- d.pos + 16;
        s
      in
      let r_refs = get_varint d in
      let r_reads = get_varint d in
      let r_writes = get_varint d in
      let nobjs = get_table_count "object" ~entry_bytes:1 in
      let r_objects = List.init nobjs (fun _ -> get_obj d) in
      let nstack = get_table_count "stack object" ~entry_bytes:1 in
      let r_stack = List.init nstack (fun _ -> get_obj d) in
      let nchunks = get_table_count "chunk" ~entry_bytes:18 in
      let index =
        Array.init nchunks (fun _ ->
            let c_offset = get_varint d in
            let c_refs = get_varint d in
            let c_md5 = get_md5 () in
            { c_offset; c_refs; c_md5 })
      in
      let stored_digest = get_md5 () in
      let recomputed =
        Digest.string
          (String.concat ""
             (Digest.string header_payload
             :: (Array.to_list index |> List.map (fun c -> c.c_md5))))
      in
      if recomputed <> stored_digest then
        err path "corrupt trace (whole-trace digest mismatch)";
      (* The digests cover neither the offsets nor [c_refs], and [stream]
         sizes its batch from the largest count and its payload buffer
         from the largest span: offsets must rise inside the data region
         by at least a chunk frame each, and each count is bounded by its
         chunk's span, at least one byte per reference. *)
      let data_start = 14 + hlen in
      let max_payload = ref 0 in
      Array.iteri
        (fun k c ->
          let next = chunk_end index ~trailer_offset k in
          if (k = 0 && c.c_offset < data_start) || c.c_offset + 21 > next then
            err path "corrupt chunk index (chunk %d offset %d)" k c.c_offset;
          if c.c_refs < 0 || c.c_refs > next - c.c_offset then
            err path "corrupt chunk index (chunk %d claims %d refs in %d bytes)"
              k c.c_refs (next - c.c_offset);
          max_payload := Stdlib.max !max_payload (next - c.c_offset - 21))
        index;
      {
        r_path = path;
        ic;
        r_version = v;
        r_meta;
        r_refs;
        r_reads;
        r_writes;
        r_objects;
        r_stack;
        index;
        r_digest = Digest.to_hex stored_digest;
        data_start;
        trailer_offset;
        max_payload = !max_payload;
      }
    with
    | r -> r
    | exception e ->
      close_in_noerr ic;
      raise e

  let meta r = r.r_meta
  let version r = r.r_version
  let refs r = r.r_refs
  let reads r = r.r_reads
  let writes r = r.r_writes
  let chunks r = Array.length r.index
  let digest r = r.r_digest
  let objects r = r.r_objects
  let stack_objects r = r.r_stack
  let close r = close_in_noerr r.ic
end

let stream (r : Reader.t) ?(on_objects = fun _ -> ()) ?(on_phase = fun _ -> ())
    ?(on_instr = fun _ -> ()) ?(on_persist = fun _ -> ())
    ?(on_chunk = fun _ -> ()) ~on_refs () =
  let path = r.Reader.r_path in
  let ic = r.Reader.ic in
  let index = r.Reader.index in
  let cap = Array.fold_left (fun acc c -> Stdlib.max acc c.c_refs) 1 index in
  let batch = Sink.Batch.create cap in
  let obj_ids = Array.make cap (-1) in
  (* one payload buffer for every chunk, sized by the bytes the file holds *)
  let payload = Bytes.create r.Reader.max_payload in
  let len = ref 0 in
  let deliver () =
    if !len > 0 then begin
      on_refs batch ~obj_ids ~first:0 ~n:!len;
      len := 0
    end
  in
  let decode_chunk k info ~clen =
    let d = dec payload ~len:clen ~path ~what:(Printf.sprintf "chunk %d" k) in
    let nrefs = get_varint d in
    if nrefs <> info.c_refs then
      err path "corrupt chunk %d (record count mismatch)" k;
    let nobjs = get_count d in
    if nobjs > 0 then on_objects (List.init nobjs (fun _ -> get_obj d));
    let prev_addr = ref 0 in
    let prev_id = ref 0 in
    let decoded = ref 0 in
    while d.pos < d.lim do
      match get_byte d with
      | t when t = tag_phase ->
        deliver ();
        on_phase (phase_of_code path (get_varint d))
      | t when t = tag_instr ->
        deliver ();
        on_instr (get_varint d)
      | t when t = tag_refs ->
        let n = get_varint d in
        if n < 0 || n > nrefs - !decoded then
          err path "corrupt chunk %d (record count mismatch)" k;
        for _ = 1 to n do
          let sz_op = get_varint d in
          let addr = !prev_addr + unzigzag (get_varint d) in
          let obj_id = !prev_id + unzigzag (get_varint d) in
          prev_addr := addr;
          prev_id := obj_id;
          let i = !len in
          Sink.Batch.set batch i ~addr ~size:(sz_op lsr 1)
            ~op:(if sz_op land 1 = 1 then Access.Write else Access.Read);
          obj_ids.(i) <- obj_id;
          len := i + 1
        done;
        decoded := !decoded + n
      | t when t = tag_persist ->
        if r.Reader.r_version < 2 then
          err path "corrupt chunk %d (persist token in a v1 trace)" k;
        deliver ();
        let ev =
          match get_byte d with
          | s when s = psub_epoch_begin || s = psub_epoch_commit ->
            let checkpoint = get_byte d <> 0 in
            let label = get_str d in
            if s = psub_epoch_begin then
              Persist.Epoch_begin { label; checkpoint }
            else Persist.Epoch_commit { label; checkpoint }
          | s when s = psub_flush ->
            let obj_id = get_varint d in
            let off = get_varint d in
            let len = get_varint d in
            Persist.Flush { obj_id; off; len }
          | s when s = psub_fence -> Persist.Fence
          | s when s = psub_declare -> Persist.Declare { obj_id = get_varint d }
          | s -> err path "corrupt chunk %d (unknown persist event %d)" k s
        in
        on_persist ev
      | t -> err path "corrupt chunk %d (unknown token %d)" k t
    done;
    if !decoded <> nrefs then
      err path "corrupt chunk %d (record count mismatch)" k;
    deliver ();
    nrefs
  in
  seek_in ic r.Reader.data_start;
  Array.iteri
    (fun k info ->
      if pos_in ic <> info.c_offset then
        err path "corrupt chunk %d (offset mismatch)" k;
      if really_read ic path 1 <> "C" then err path "corrupt chunk %d" k;
      (* No digest covers the length: it must fill the chunk's span
         exactly before a byte of payload is read. *)
      let clen = read_u32le ic path in
      let expected =
        chunk_end index ~trailer_offset:r.Reader.trailer_offset k
        - info.c_offset - 21
      in
      if clen <> expected then
        err path "corrupt chunk %d (length %d, span holds %d)" k clen expected;
      let stored = really_read ic path 16 in
      if stored <> info.c_md5 then
        err path "corrupt chunk %d (index digest mismatch)" k;
      (try really_input ic payload 0 clen
       with End_of_file -> err path "truncated file");
      if Digest.subbytes payload 0 clen <> stored then
        err path "corrupt chunk %d (digest mismatch)" k;
      on_chunk k;
      let nrefs = decode_chunk k info ~clen in
      Nvsc_obs.Metrics.Counter.incr m_replay_chunks;
      Nvsc_obs.Metrics.Counter.add m_replay_refs nrefs)
    index;
  if pos_in ic <> r.Reader.trailer_offset then
    err path "trailing garbage between chunks and trailer"
