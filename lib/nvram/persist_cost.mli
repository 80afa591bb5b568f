(** Durability-traffic cost model: what the flush/fence annotations of
    NVSC-Persist cost on each memory technology.

    Each flushed cache line is a write the NVM device must absorb at its
    write latency (the paper's Table IV values — the same numbers the
    performance simulator charges for ordinary writes); each fence is a
    fixed drain of the write-pending queue.  The model is deliberately a
    lower bound, like the paper's §V single-latency simulator: no
    concurrency between overlapping write-backs is assumed away, none is
    granted. *)

val line_bytes : int
(** 64 — must match {!Nvsc_sanitizer}'s checker granularity. *)

type t = {
  tech : Technology.t;
  flush_ns : float;  (** flushed lines x the tech's write latency *)
  fence_ns : float;
  total_ns : float;
}

val charge : tech:Technology.t -> flushed_lines:int -> fences:int -> t
val pp : Format.formatter -> t -> unit
