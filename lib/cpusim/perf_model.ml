module Access = Nvsc_memtrace.Access
module Sink = Nvsc_memtrace.Sink
module Hierarchy = Nvsc_cachesim.Hierarchy

(* One shared copy of the latency-independent state (caches, TLB,
   prefetcher, miss clustering, instruction and cycle counters) and one
   lane per memory latency.  A lane owns only what its latency changes:
   the stall it accumulates and, with posted writes, its write buffer.
   Every lane receives the same float additions in the same order as a
   standalone one-lane model, so k lanes report exactly what k separate
   models would. *)
type t = {
  p : Core_params.t;
  hierarchy : Hierarchy.t;
  tlb : Tlb.t;
  mem_latency_ns : float array;
  cluster_stall : float array; (* per lane: latency less the ROB's reach *)
  write_latency_cycles : float array option;
      (* per lane; None = paper mode (write = read) *)
  write_buffers : float Queue.t array; (* cycle stamps at which entries free *)
  write_buffer_entries : int;
  mem_stall : float array; (* per lane *)
  l2_visible_cycles : float;
  covered_miss_cycles : float;
  (* stream-prefetcher state: region -> last line, bounded LRU *)
  streams : (int, int) Hashtbl.t;
  stream_order : int Queue.t;
  stream_slots : int;
  (* miss clustering *)
  mutable cluster_open : bool;
  mutable cluster_anchor_idx : int;
  mutable cluster_size : int;
  (* accounting *)
  mutable instr_count : int;
  mutable mem_instr_count : int;
  cycle_sums : float array;
      (* base cycles, L2 stall, TLB stall (the [_slot]s below): a mutable
         float field of this mixed record would box on every write *)
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable mem_accesses : int;
  mutable covered_misses : int;
  mutable clusters : int;
}

let base_slot = 0
let l2_slot = 1
let tlb_slot = 2

let valid_latency l = Float.is_finite l && l > 0.

let build ~fn ?(params = Core_params.paper) ?l1d ?l2 ?mem_write_latency_ns
    ?(write_buffer_entries = 16) ~mem_latency_ns () =
  let lanes = Array.length mem_latency_ns in
  if lanes = 0 then invalid_arg (fn ^ ": no lanes");
  if not (Array.for_all valid_latency mem_latency_ns) then
    invalid_arg (fn ^ ": latency");
  (match mem_write_latency_ns with
  | Some w when Array.length w <> lanes ->
    invalid_arg (fn ^ ": read and write latency counts differ")
  | Some w when not (Array.for_all valid_latency w) ->
    invalid_arg (fn ^ ": write latency")
  | _ -> ());
  if write_buffer_entries <= 0 then invalid_arg (fn ^ ": write buffer");
  let p = params in
  let rob_hide_cycles =
    float_of_int p.rob_entries /. float_of_int p.issue_width
  in
  {
    p;
    hierarchy = Hierarchy.create ?l1d ?l2 ~sink:(Sink.null ()) ();
    tlb = Tlb.create ~entries:p.tlb_entries ~page_bytes:p.page_bytes;
    mem_latency_ns = Array.copy mem_latency_ns;
    cluster_stall =
      Array.map
        (fun ns -> Float.max 0. ((ns *. p.clock_ghz) -. rob_hide_cycles))
        mem_latency_ns;
    write_latency_cycles =
      Option.map (Array.map (fun w -> w *. p.clock_ghz)) mem_write_latency_ns;
    write_buffers = Array.init lanes (fun _ -> Queue.create ());
    write_buffer_entries;
    mem_stall = Array.make lanes 0.;
    l2_visible_cycles = float_of_int (p.l2_hit_cycles - p.l1_hit_cycles) /. 2.;
    covered_miss_cycles = 4.0;
    streams = Hashtbl.create 32;
    stream_order = Queue.create ();
    stream_slots = 16;
    cluster_open = false;
    cluster_anchor_idx = 0;
    cluster_size = 0;
    instr_count = 0;
    mem_instr_count = 0;
    cycle_sums = Array.make 3 0.;
    l1_hits = 0;
    l2_hits = 0;
    mem_accesses = 0;
    covered_misses = 0;
    clusters = 0;
  }

let create ?params ?l1d ?l2 ?mem_write_latency_ns ?write_buffer_entries
    ~mem_latency_ns () =
  build ~fn:"Perf_model.create" ?params ?l1d ?l2
    ?mem_write_latency_ns:(Option.map (fun w -> [| w |]) mem_write_latency_ns)
    ?write_buffer_entries ~mem_latency_ns:[| mem_latency_ns |] ()

let create_lanes ?mem_write_latency_ns ?write_buffer_entries ~mem_latency_ns ()
    =
  build ~fn:"Perf_model.create_lanes" ?mem_write_latency_ns
    ?write_buffer_entries ~mem_latency_ns ()

let retire t n =
  t.instr_count <- t.instr_count + n;
  t.cycle_sums.(base_slot) <-
    t.cycle_sums.(base_slot)
    +. (float_of_int n /. float_of_int t.p.issue_width)

let instructions t n =
  if n < 0 then invalid_arg "Perf_model.instructions: negative count";
  retire t n

(* The hardware stream prefetcher: a miss whose line extends an active
   stream (within two lines of that stream's last fetch) is covered — its
   latency is hidden and only a bandwidth slot is paid.  Streams are
   tracked per 4 KiB region; a stream that has just crossed a region
   boundary is found via the predecessor line's region, so long unit-stride
   sweeps stay covered. *)
let stream_covered t line =
  let region = line lsr 6 in
  let extends r =
    match Hashtbl.find_opt t.streams r with
    | Some last -> line > last && line - last <= 2
    | None -> false
  in
  let covered = extends region || extends ((line - 2) lsr 6) in
  if not (Hashtbl.mem t.streams region) then begin
    if Queue.length t.stream_order >= t.stream_slots then begin
      let victim = Queue.pop t.stream_order in
      Hashtbl.remove t.streams victim
    end;
    Queue.push region t.stream_order
  end;
  Hashtbl.replace t.streams region line;
  covered

(* Demand misses cluster: within one ROB reach of the cluster anchor, up to
   [effective_mlp] misses share a single memory latency.  When a cluster
   cannot absorb the miss, the previous cluster's latency is charged (less
   the ROB's overlap reach) and a new cluster opens. *)
let charge_cluster t =
  for i = 0 to Array.length t.mem_stall - 1 do
    t.mem_stall.(i) <- t.mem_stall.(i) +. t.cluster_stall.(i)
  done;
  t.clusters <- t.clusters + 1

let demand_miss t =
  let idx = t.instr_count in
  if
    t.cluster_open
    && idx - t.cluster_anchor_idx <= t.p.rob_entries
    && t.cluster_size < t.p.effective_mlp
  then t.cluster_size <- t.cluster_size + 1
  else begin
    if t.cluster_open then charge_cluster t;
    t.cluster_open <- true;
    t.cluster_anchor_idx <- idx;
    t.cluster_size <- 1
  end

(* Posted writes: a write miss grabs a write-buffer entry for the write
   duration and only stalls the pipeline when the buffer is full (the
   hardware mechanism that absorbs NVRAM's slow writes).  Each lane has its
   own buffer and clock, since both depend on its stalls so far. *)
let current_cycles t i =
  t.cycle_sums.(base_slot) +. t.cycle_sums.(l2_slot) +. t.mem_stall.(i)
  +. t.cycle_sums.(tlb_slot)

let posted_write t i write_cycles =
  let buffer = t.write_buffers.(i) in
  let now = current_cycles t i in
  (* free completed entries *)
  let rec prune () =
    match Queue.peek_opt buffer with
    | Some release when release <= now -> ignore (Queue.pop buffer); prune ()
    | _ -> ()
  in
  prune ();
  let start =
    if Queue.length buffer < t.write_buffer_entries then now
    else begin
      (* buffer full: stall until the oldest entry frees *)
      let release = Queue.pop buffer in
      let stall = Float.max 0. (release -. now) in
      t.mem_stall.(i) <- t.mem_stall.(i) +. stall;
      now +. stall
    end
  in
  Queue.push (start +. write_cycles) buffer;
  (* the write still occupies a bandwidth slot *)
  t.mem_stall.(i) <- t.mem_stall.(i) +. t.covered_miss_cycles

let access_raw t ~addr ~size ~op =
  t.mem_instr_count <- t.mem_instr_count + 1;
  retire t 1;
  if not (Tlb.access t.tlb addr) then
    t.cycle_sums.(tlb_slot) <-
      t.cycle_sums.(tlb_slot) +. float_of_int t.p.tlb_miss_cycles;
  match Hierarchy.access_classified_raw t.hierarchy ~addr ~size ~op with
  | `L1 -> t.l1_hits <- t.l1_hits + 1
  | `L2 ->
    t.l2_hits <- t.l2_hits + 1;
    t.cycle_sums.(l2_slot) <- t.cycle_sums.(l2_slot) +. t.l2_visible_cycles
  | `Mem -> (
    t.mem_accesses <- t.mem_accesses + 1;
    match (op, t.write_latency_cycles) with
    | Access.Write, Some write_cycles ->
      for i = 0 to Array.length t.mem_stall - 1 do
        posted_write t i write_cycles.(i)
      done
    | (Access.Read | Access.Write), _ ->
      let line = addr / 64 in
      if stream_covered t line then begin
        t.covered_misses <- t.covered_misses + 1;
        for i = 0 to Array.length t.mem_stall - 1 do
          t.mem_stall.(i) <- t.mem_stall.(i) +. t.covered_miss_cycles
        done
      end
      else demand_miss t)

let access t (a : Access.t) = access_raw t ~addr:a.addr ~size:a.size ~op:a.op

let consume t batch ~first ~n =
  for i = first to first + n - 1 do
    access_raw t ~addr:(Sink.Batch.addr batch i) ~size:(Sink.Batch.size batch i)
      ~op:(Sink.Batch.op batch i)
  done

type report = {
  instructions : int;
  mem_instructions : int;
  cycles : float;
  base_cycles : float;
  l2_stall_cycles : float;
  mem_stall_cycles : float;
  tlb_stall_cycles : float;
  runtime_ns : float;
  ipc : float;
  l1_hits : int;
  l2_hits : int;
  mem_accesses : int;
  miss_clusters : int;
  tlb_misses : int;
}

let lane_report t i =
  (* Close any open cluster so its latency is not lost. *)
  let pending = if t.cluster_open then 1 else 0 in
  let mem_stall =
    t.mem_stall.(i) +. if pending = 1 then t.cluster_stall.(i) else 0.
  in
  let base_cycles = t.cycle_sums.(base_slot)
  and l2_stall = t.cycle_sums.(l2_slot)
  and tlb_stall = t.cycle_sums.(tlb_slot) in
  let cycles = base_cycles +. l2_stall +. mem_stall +. tlb_stall in
  {
    instructions = t.instr_count;
    mem_instructions = t.mem_instr_count;
    cycles;
    base_cycles;
    l2_stall_cycles = l2_stall;
    mem_stall_cycles = mem_stall;
    tlb_stall_cycles = tlb_stall;
    runtime_ns = cycles /. t.p.clock_ghz;
    ipc =
      (if cycles > 0. then float_of_int t.instr_count /. cycles else 0.);
    l1_hits = t.l1_hits;
    l2_hits = t.l2_hits;
    mem_accesses = t.mem_accesses;
    miss_clusters = t.clusters + pending;
    tlb_misses = Tlb.misses t.tlb;
  }

let reports t = Array.init (Array.length t.mem_stall) (lane_report t)

let one_lane fn t =
  let lanes = Array.length t.mem_stall in
  if lanes <> 1 then
    invalid_arg (Printf.sprintf "Perf_model.%s: model has %d lanes" fn lanes)

let report t =
  one_lane "report" t;
  lane_report t 0

let mem_latency_ns t =
  one_lane "mem_latency_ns" t;
  t.mem_latency_ns.(0)
