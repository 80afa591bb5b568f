(** Cycle-accounting out-of-order core model (the PTLsim substitute).

    The paper (§V) uses PTLsim solely to vary the main-memory access
    latency and observe how application runtime responds; read and write
    latencies are set equal (making the result a performance lower bound)
    and the whole of main memory is assumed to be the NVRAM under test.

    This model consumes the application's committed instruction stream —
    plain-instruction counts interleaved with memory references in program
    order — and accounts cycles with an interval model:

    - the frontend retires [issue_width] instructions per cycle;
    - L1 hits are pipelined (no added stall beyond the base CPI);
    - L2 hits add their access latency, discounted by out-of-order overlap;
    - main-memory misses are clustered: misses falling within one
      reorder-buffer reach of an open cluster (up to the effective-MLP
      limit) share a single latency; each cluster's latency is then
      overlapped with the independent instructions that follow it, and only
      the remainder stalls the pipeline;
    - TLB misses add a fixed page-walk penalty.

    The memory hierarchy is the paper's Table II cache configuration
    (via {!Nvsc_cachesim.Hierarchy}).

    {2 Latency lanes}

    Nothing above but the memory latency differs between the paper's
    technologies, so one model can account several latencies from one
    pass: a model has one or more {e lanes}.  The hierarchy, TLB,
    prefetcher, miss clustering, instruction counts and the base, L2 and
    TLB cycles are shared; each lane keeps its own latency, write buffer
    and memory-stall total.  Lane [i] of a k-lane model receives the same
    float operations in the same order as a one-lane model built with lane
    [i]'s latencies, so its report is equal (float [=]) to that model's. *)

type t

val create :
  ?params:Core_params.t ->
  ?l1d:Nvsc_cachesim.Cache_params.t ->
  ?l2:Nvsc_cachesim.Cache_params.t ->
  ?mem_write_latency_ns:float ->
  ?write_buffer_entries:int ->
  mem_latency_ns:float ->
  unit ->
  t
(** Without [mem_write_latency_ns], writes behave like reads at
    [mem_latency_ns] — the paper's §V assumption ("the current simulator
    does not differentiate between read and write latencies"), which makes
    the result a performance lower bound.

    With [mem_write_latency_ns], that limitation is removed: write misses
    are *posted* through a write buffer of [write_buffer_entries] (default
    16).  A posted write costs only a bandwidth slot; its latency is paid
    by holding a buffer entry for the write duration, and the pipeline
    stalls only when the buffer is full.  This is how hardware actually
    absorbs NVRAM's slow writes, and quantifies how conservative the
    paper's lower bound is.

    This is the one-lane model.  Raises [Invalid_argument
    "Perf_model.create: latency"] (or [": write latency"]) unless the
    latency is finite and positive, and [": write buffer"] unless
    [write_buffer_entries > 0]. *)

val create_lanes :
  ?mem_write_latency_ns:float array ->
  ?write_buffer_entries:int ->
  mem_latency_ns:float array ->
  unit ->
  t
(** One lane per element of [mem_latency_ns] (and, with posted writes, of
    [mem_write_latency_ns]); otherwise as {!create} with its default
    core parameters ({!Core_params.paper}) and caches.  Raises
    [Invalid_argument] named ["Perf_model.create_lanes: ..."] for an
    empty array (["no lanes"]), read and write arrays of different
    lengths (["read and write latency counts differ"]), a latency that is
    not finite and positive (["latency"], ["write latency"]) or a
    non-positive buffer size (["write buffer"]). *)

val instructions : t -> int -> unit
(** Account [n] committed non-memory instructions. *)

val access_raw : t -> addr:int -> size:int -> op:Nvsc_memtrace.Access.op -> unit
(** Account one committed memory instruction (program order). *)

val access : t -> Nvsc_memtrace.Access.t -> unit
(** Per-record convenience over {!access_raw}. *)

val consume : t -> Nvsc_memtrace.Sink.Batch.t -> first:int -> n:int -> unit
(** Account a batch slice of memory instructions in program order (the
    sink-consumer shape). *)

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

val reports : t -> report array
(** One report per lane, in lane order.  Reporting does not disturb the
    model: an open miss cluster is charged in the report only. *)

val report : t -> report
(** The report of a one-lane model; raises [Invalid_argument] on a model
    with several lanes. *)

val mem_latency_ns : t -> float
(** The read latency of a one-lane model; raises [Invalid_argument] on a
    model with several lanes. *)
