(** Checkpointing to NVRAM — the paper's §I motivation quantified.

    "NVRAM could provide substantial bandwidth for checkpointing and ...
    would drastically reduce latency.  This will become increasingly
    important in exascale systems, given the resiliency challenge and
    limited external I/O bandwidth."

    A first-order model: a checkpoint of [size_bytes] drains to a target
    (parallel filesystem over shared I/O, or node-local byte-addressable
    NVRAM over the memory bus) at the target's bandwidth plus a setup
    latency.  Young's approximation then gives the optimal checkpoint
    interval for a machine MTBF, and the resulting fraction of useful
    compute. *)

type target = {
  name : string;
  bandwidth_bytes_per_s : float;
  setup_latency_s : float;
}

val parallel_fs : ?bandwidth_gb_s:float -> unit -> target
(** Shared parallel filesystem; default 1.5 GB/s per node of aggregate
    bandwidth and 5 ms of I/O-stack latency. *)

val nvram_local : Nvsc_nvram.Technology.t -> target
(** Node-local NVRAM behind the memory bus: bandwidth is the lesser of the
    12.8 GB/s bus and the device's cell write bandwidth (64-byte lines per
    write latency across the standard Org's banks); setup latency is
    microseconds (a memory fence, not an I/O stack). *)

val checkpoint_time_s : target -> size_bytes:int -> float

val young_interval_s : checkpoint_time_s:float -> mtbf_s:float -> float
(** Young's approximation, [sqrt (2 * delta * MTBF)]. *)

val efficiency : checkpoint_time_s:float -> mtbf_s:float -> float
(** Useful-compute fraction at Young's interval:
    [1 - delta/T - T/(2*MTBF)], clamped to [\[0, 1\]]. *)
